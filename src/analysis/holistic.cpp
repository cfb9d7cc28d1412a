#include "analysis/holistic.hpp"

#include <algorithm>
#include <utility>

#include "analysis/can_analysis.hpp"
#include "analysis/flexray_analysis.hpp"
#include "analysis/rta.hpp"

namespace orte::analysis {

namespace {
/// Bound on the fixpoint iterations; a set that has not converged by then is
/// reported unschedulable.
constexpr int kMaxIterations = 100;
}  // namespace

HolisticResult analyze_holistic(const std::vector<DistTask>& tasks,
                                const std::vector<DistMessage>& messages,
                                const BusSpec& bus) {
  using Source = DistTask::Source;
  HolisticResult result;

  // Effective periods: chain heads carry their own; a released task inherits
  // its source's, one hop per pass. Tasks left at 0 (nothing periodic
  // releases them, e.g. a source cycle) are left out of everything below.
  std::vector<Duration>& period = result.period;
  period.reserve(tasks.size());
  std::size_t ecus = 0;
  for (const auto& t : tasks) {
    period.push_back(t.source == Source::kNone ? std::max<Duration>(t.period, 0)
                                               : 0);
    ecus = std::max(ecus, t.ecu + 1);
  }
  // The task whose period (and response) a released task inherits.
  const auto upstream = [&](const DistTask& t) {
    return t.source == Source::kTask ? t.from : messages[t.from].from_task;
  };
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (period[i] > 0 || tasks[i].source == Source::kNone) continue;
      period[i] = period[upstream(tasks[i])];
      changed = changed || period[i] > 0;
    }
  }
  const auto analysed = [&period](std::size_t task) {
    return period[task] > 0;
  };

  // The per-ECU task sets and the bus's message set are fixed; only their
  // jitters change from one iteration to the next.
  std::vector<std::vector<AnalysisTask>> local(ecus);
  std::vector<std::vector<std::size_t>> members(ecus);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (!analysed(i)) continue;
    const DistTask& t = tasks[i];
    // Allow responses beyond the period during iteration; divergence is
    // detected against the 4x-period cap below.
    local[t.ecu].push_back({.name = t.name,
                            .wcet = t.wcet,
                            .period = period[i],
                            .deadline = 4 * period[i],
                            .priority = t.priority});
    members[t.ecu].push_back(i);
  }
  std::vector<CanMessage> frames;
  std::vector<std::size_t> sent;  ///< Message index of each frame.
  for (std::size_t j = 0; j < messages.size(); ++j) {
    const DistMessage& m = messages[j];
    if (!analysed(m.from_task)) continue;
    frames.push_back({.name = m.name,
                      .id = m.id,
                      .bytes = m.bytes,
                      .period = period[m.from_task]});
    sent.push_back(j);
  }

  // FlexRay static segment: a write that just misses its slot waits one full
  // communication cycle, so every frame's bound is cycle + slot (delivery
  // instants themselves are strictly periodic — zero jitter on the bus side).
  const Duration flexray_delay =
      bus.use_flexray ? flexray_static_latency(bus.flexray).worst : 0;

  // Fixpoint: jitters start at 0 and grow monotonically.
  std::vector<Duration> jitter(tasks.size(), 0);
  std::vector<Duration> task_resp(tasks.size(), 0);
  std::vector<Duration> msg_resp(messages.size(), 0);
  for (int iter = 1; iter <= kMaxIterations; ++iter) {
    result.iterations = iter;
    // 1. Per-ECU task analysis with current jitters.
    bool all_ok = true;
    for (std::size_t e = 0; e < ecus; ++e) {
      for (std::size_t k = 0; k < local[e].size(); ++k) {
        local[e][k].jitter = jitter[members[e][k]];
      }
      for (std::size_t k = 0; k < local[e].size(); ++k) {
        const auto r = response_time(local[e][k], local[e]);
        if (!r.has_value()) {
          all_ok = false;
          continue;
        }
        task_resp[members[e][k]] = *r;
      }
    }
    if (!all_ok) return result;  // schedulable stays false

    // 2. Bus analysis with message jitter = sender response, so the message
    // response R = J + w + C carries the whole upstream chain.
    for (std::size_t f = 0; f < frames.size(); ++f) {
      frames[f].jitter = task_resp[messages[sent[f]].from_task];
    }
    for (std::size_t f = 0; f < frames.size(); ++f) {
      if (bus.use_flexray) {
        msg_resp[sent[f]] = frames[f].jitter + flexray_delay;
        continue;
      }
      const auto r = can_response_time(frames[f], frames, bus.can_bitrate_bps);
      if (!r.has_value()) return result;
      msg_resp[sent[f]] = *r;
    }

    // 3. Propagate: a released task inherits its source's response (message
    // delivery or local producer completion) as release jitter.
    bool stable = true;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const DistTask& t = tasks[i];
      if (!analysed(i) || t.source == Source::kNone) continue;
      const Duration next =
          t.source == Source::kTask ? task_resp[t.from] : msg_resp[t.from];
      stable = stable && next == jitter[i];
      jitter[i] = next;
    }

    // Divergence guard: any response beyond 4 periods = hopeless.
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (task_resp[i] > 4 * period[i]) return result;
    }

    if (stable) {
      // Converged. Final verdict: every response within its (implicit)
      // period — the iteration deliberately tolerated larger intermediate
      // values, but R > T is unschedulable under this single-busy-period
      // analysis.
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (task_resp[i] > period[i]) return result;
      }
      for (const std::size_t j : sent) {
        if (msg_resp[j] > period[messages[j].from_task]) return result;
      }
      result.schedulable = true;
      result.task_response = std::move(task_resp);
      result.message_response = std::move(msg_resp);
      return result;
    }
  }
  return result;  // did not converge within kMaxIterations
}

}  // namespace orte::analysis
