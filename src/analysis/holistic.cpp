#include "analysis/holistic.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "analysis/flexray_analysis.hpp"

namespace orte::analysis {

void HolisticModel::add_task(DistTask task) {
  if (!task_of_.try_emplace(task.name, tasks_.size()).second) {
    throw std::invalid_argument("duplicate task " + task.name);
  }
  tasks_.push_back(std::move(task));
}

void HolisticModel::add_message(DistMessage message) {
  (void)task(message.from_task);  // validation: throws on unknown
  for (const auto& to : message.to_tasks) (void)task(to);
  messages_.push_back(std::move(message));
}

void HolisticModel::add_dependency(std::string from_task, std::string to_task) {
  (void)task(from_task);
  (void)task(to_task);
  dependencies_.push_back({std::move(from_task), std::move(to_task)});
}

const DistTask& HolisticModel::task(const std::string& name) const {
  const auto it = task_of_.find(name);
  if (it == task_of_.end()) throw std::invalid_argument("unknown task " + name);
  return tasks_[it->second];
}

HolisticResult HolisticModel::analyze(const BusSpec& bus,
                                      int max_iterations) const {
  HolisticResult result;

  // Derive each task's effective period: chain heads carry their own; a
  // triggered task inherits the period of the chain head feeding it
  // (through messages and local dependency edges alike). Tasks that stay
  // period-free are left out of everything below.
  std::map<std::string, Duration>& period = result.period;
  for (const auto& t : tasks_) {
    if (t.period > 0) period[t.name] = t.period;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    const auto inherit = [&](const std::string& from, const std::string& to) {
      const auto src = period.find(from);
      if (src == period.end()) return;
      // Min over all sources: with several triggering edges the smallest
      // inter-arrival dominates, and the monotone-decreasing update
      // terminates where a last-writer-wins rule could oscillate.
      const auto [dst, fresh] = period.try_emplace(to, src->second);
      if (fresh || src->second < dst->second) {
        dst->second = src->second;
        changed = true;
      }
    };
    for (const auto& m : messages_) {
      for (const auto& to : m.to_tasks) inherit(m.from_task, to);
    }
    for (const auto& d : dependencies_) inherit(d.from_task, d.to_task);
  }
  const auto analysed = [&period](const std::string& name) {
    return period.count(name) != 0;
  };

  // FlexRay static segment: a write that just misses its slot waits one full
  // communication cycle, so every frame's bound is cycle + slot (delivery
  // instants themselves are strictly periodic — zero jitter on the bus side).
  const Duration flexray_delay =
      bus.use_flexray ? flexray_static_latency(bus.flexray).worst : 0;

  // Fixpoint: jitters start at 0 and grow monotonically.
  std::map<std::string, Duration> task_jitter;
  for (const auto& [name, p] : period) task_jitter[name] = 0;

  for (int iter = 1; iter <= max_iterations; ++iter) {
    result.iterations = iter;
    // 1. Per-ECU task analysis with current jitters.
    std::map<std::string, Duration> task_resp;
    std::set<std::string> ecus;
    for (const auto& t : tasks_) ecus.insert(t.ecu);
    bool all_ok = true;
    for (const auto& ecu : ecus) {
      std::vector<AnalysisTask> local;
      for (const auto& t : tasks_) {
        if (t.ecu != ecu || !analysed(t.name)) continue;
        AnalysisTask a;
        a.name = t.name;
        a.wcet = t.wcet;
        a.period = period.at(t.name);
        // Allow responses beyond the period during iteration; divergence is
        // detected against the 4x-period cap below.
        a.deadline = 4 * a.period;
        a.jitter = task_jitter.at(t.name);
        a.priority = t.priority;
        local.push_back(a);
      }
      for (const auto& a : local) {
        const auto r = response_time(a, local);
        if (!r.has_value()) {
          all_ok = false;
          continue;
        }
        task_resp[a.name] = *r;
      }
    }
    if (!all_ok) return result;  // schedulable stays false

    // 2. Bus analysis with message jitter = sender response, so the message
    // response R = J + w + C carries the whole upstream chain.
    std::map<std::string, Duration> msg_resp;
    if (bus.use_flexray) {
      for (const auto& m : messages_) {
        if (!analysed(m.from_task)) continue;
        msg_resp[m.name] = task_resp.at(m.from_task) + flexray_delay;
      }
    } else {
      std::vector<CanMessage> canbus;
      for (const auto& m : messages_) {
        if (!analysed(m.from_task)) continue;
        CanMessage c;
        c.name = m.name;
        c.id = m.id;
        c.bytes = m.bytes;
        c.period = period.at(m.from_task);
        c.jitter = task_resp.at(m.from_task);
        canbus.push_back(c);
      }
      for (const auto& c : canbus) {
        const auto r = can_response_time(c, canbus, bus.can_bitrate_bps);
        if (!r.has_value()) return result;
        msg_resp[c.name] = *r;
      }
    }

    // 3. Propagate: a triggered task inherits the worst incoming response
    // (message delivery or local producer completion) as release jitter.
    std::map<std::string, Duration> next_jitter;
    for (const auto& [name, p] : period) next_jitter[name] = 0;
    for (const auto& m : messages_) {
      const auto r = msg_resp.find(m.name);
      if (r == msg_resp.end()) continue;
      for (const auto& to : m.to_tasks) {
        next_jitter[to] = std::max(next_jitter.at(to), r->second);
      }
    }
    for (const auto& d : dependencies_) {
      if (!analysed(d.from_task)) continue;
      next_jitter[d.to_task] =
          std::max(next_jitter.at(d.to_task), task_resp.at(d.from_task));
    }
    const bool stable = next_jitter == task_jitter;
    task_jitter = next_jitter;

    // Divergence guard: any response beyond 4 periods = hopeless.
    for (const auto& [name, r] : task_resp) {
      if (r > 4 * period.at(name)) return result;
    }

    if (stable) {
      // Converged. Final verdict: every response within its (implicit)
      // period — the iteration deliberately tolerated larger intermediate
      // values, but R > T is unschedulable under this single-busy-period
      // analysis.
      for (const auto& [name, r] : task_resp) {
        if (r > period.at(name)) return result;
      }
      for (const auto& m : messages_) {
        const auto r = msg_resp.find(m.name);
        if (r != msg_resp.end() && r->second > period.at(m.from_task)) {
          return result;
        }
      }
      result.schedulable = true;
      result.task_response = std::move(task_resp);
      result.message_response = std::move(msg_resp);
      return result;
    }
  }
  return result;  // did not converge within max_iterations
}

}  // namespace orte::analysis
