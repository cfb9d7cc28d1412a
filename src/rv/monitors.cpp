#include "rv/monitors.hpp"

#include <cstdlib>
#include <utility>

namespace orte::rv {

void Monitor::raise(Violation v) {
  ++raised_;
  v.contract = contract_;
  v.confidence = confidence_;
  if (v.blame.empty()) v.blame = blame_;
  if (sink_) sink_(v);
}

// --- ArrivalMonitor -----------------------------------------------------------

ArrivalMonitor::ArrivalMonitor(ArrivalSpec spec)
    : Monitor(spec.contract, spec.confidence, spec.blame),
      spec_(std::move(spec)) {}

std::vector<Monitor::Key> ArrivalMonitor::subscribe(sim::Trace& trace) {
  subject_id_ = trace.intern_subject(spec_.subject);
  // Suppressed writes of a quarantined component still document its update
  // rate; judging them keeps the rehabilitation loop honest.
  return {{trace.intern_category("rte.write"), subject_id_},
          {trace.intern_category("rte.quarantine_drop"), subject_id_}};
}

void ArrivalMonitor::resync() {
  last_ = -1;
  streak_ = 0;
}

void ArrivalMonitor::observe(const sim::TraceEvent& rec) {
  if (rec.subject_id != subject_id_) return;
  ++arrivals_;
  const sim::Time prev = last_;
  last_ = rec.when;
  if (prev < 0 || spec_.period <= 0) return;
  note_observation();
  const sim::Duration interval = rec.when - prev;
  const sim::Duration deviation = std::llabs(interval - spec_.period);
  Violation v;
  v.subject = spec_.subject;
  v.when = rec.when;
  if (spec_.jitter > 0 && deviation > spec_.jitter) {
    v.kind = "jitter";
    v.observed = deviation;
    v.bound = spec_.jitter;
    v.detail = "inter-arrival " + std::to_string(interval) + " ns vs period " +
               std::to_string(spec_.period) + " ns";
  } else if (spec_.jitter <= 0 && interval > spec_.period) {
    v.kind = "period";
    v.observed = interval;
    v.bound = spec_.period;
  } else {
    streak_ = 0;
    return;
  }
  v.streak = ++streak_;
  raise(std::move(v));
}

// --- DeadlineMonitor ----------------------------------------------------------

DeadlineMonitor::DeadlineMonitor(DeadlineSpec spec)
    : Monitor(spec.contract, spec.confidence, spec.blame),
      spec_(std::move(spec)) {}

std::vector<Monitor::Key> DeadlineMonitor::subscribe(sim::Trace& trace) {
  task_id_ = trace.intern_subject(spec_.task);
  miss_category_id_ = trace.intern_category("task.deadline_miss");
  return {{miss_category_id_, task_id_},
          {trace.intern_category("task.complete"), task_id_}};
}

void DeadlineMonitor::resync() { miss_streak_ = 0; }

void DeadlineMonitor::observe(const sim::TraceEvent& rec) {
  if (rec.subject_id != task_id_) return;
  if (rec.category_id == miss_category_id_) {
    note_observation();
    Violation v;
    v.subject = spec_.task;
    v.kind = "deadline";
    v.bound = spec_.deadline;
    v.observed = spec_.deadline;  // the job is still running past the bound
    v.when = rec.when;
    v.streak = ++miss_streak_;
    raise(std::move(v));
    return;
  }
  // task.complete: record value carries the response time in ns.
  ++completions_;
  note_observation();
  if (rec.value <= spec_.deadline) miss_streak_ = 0;
}

// --- LatencyMonitor -----------------------------------------------------------

LatencyMonitor::LatencyMonitor(LatencySpec spec)
    : Monitor(spec.contract, spec.confidence, spec.blame),
      spec_(std::move(spec)) {}

std::vector<Monitor::Key> LatencyMonitor::subscribe(sim::Trace& trace) {
  source_.category = trace.intern_category("rte.write");
  source_.subject = trace.intern_subject(spec_.source_subject);
  sink_.category = trace.intern_category("rte.runnable");
  sink_.subject = trace.intern_subject(spec_.sink_subject);
  return {source_, sink_};
}

void LatencyMonitor::resync() {
  in_flight_.clear();
  streak_ = 0;
}

void LatencyMonitor::observe(const sim::TraceEvent& rec) {
  if (rec.category_id == source_.category &&
      rec.subject_id == source_.subject) {
    in_flight_.push_back(rec.when);
    if (in_flight_.size() > kMaxInFlight) {
      // The sink fell behind by a full window: the oldest cause will never
      // be matched — report the age it reached before dropping it.
      note_observation();
      Violation v;
      v.subject = spec_.source_subject + " -> " + spec_.sink_subject;
      v.kind = "latency";
      v.observed = rec.when - in_flight_.front();
      v.bound = spec_.bound;
      v.when = rec.when;
      v.streak = ++streak_;
      v.detail = "sink starved: dropped unmatched cause";
      in_flight_.pop_front();
      raise(std::move(v));
    }
    return;
  }
  if (rec.category_id != sink_.category || rec.subject_id != sink_.subject) {
    return;
  }
  if (!spec_.sink_detail.empty() && rec.detail != spec_.sink_detail) return;
  if (in_flight_.empty()) return;  // sink activity with no pending cause
  const sim::Time cause = in_flight_.front();
  in_flight_.pop_front();
  const sim::Duration latency = rec.when - cause;
  ++samples_;
  note_observation();
  if (latency > worst_) worst_ = latency;
  if (spec_.bound > 0 && latency > spec_.bound) {
    Violation v;
    v.subject = spec_.source_subject + " -> " + spec_.sink_subject;
    v.kind = "latency";
    v.observed = latency;
    v.bound = spec_.bound;
    v.when = rec.when;
    v.streak = ++streak_;
    raise(std::move(v));
  } else {
    streak_ = 0;
  }
}

// --- RangeMonitor -------------------------------------------------------------

RangeMonitor::RangeMonitor(RangeSpec spec)
    : Monitor(spec.contract, spec.confidence, spec.blame),
      spec_(std::move(spec)) {
  if (spec_.report_subject.empty()) spec_.report_subject = spec_.subject;
}

std::vector<Monitor::Key> RangeMonitor::subscribe(sim::Trace& trace) {
  subject_id_ = trace.intern_subject(spec_.subject);
  return {{trace.intern_category(spec_.category), subject_id_}};
}

void RangeMonitor::resync() { streak_ = 0; }

void RangeMonitor::observe(const sim::TraceEvent& rec) {
  if (rec.subject_id != subject_id_) return;
  ++checked_;
  note_observation();
  if (spec_.range.contains(rec.value)) {
    streak_ = 0;
    return;
  }
  Violation v;
  v.subject = spec_.report_subject;
  v.kind = "range";
  v.observed = rec.value;
  // A violation carries one scalar bound; report the breached side.
  v.bound = rec.value < spec_.range.lo ? spec_.range.lo : spec_.range.hi;
  v.when = rec.when;
  v.streak = ++streak_;
  v.detail = "value " + std::to_string(rec.value) + " outside [" +
             std::to_string(spec_.range.lo) + ", " +
             std::to_string(spec_.range.hi) + "] at " + spec_.subject;
  raise(std::move(v));
}

// --- AutomatonMonitor ---------------------------------------------------------

AutomatonMonitor::AutomatonMonitor(AutomatonSpec spec)
    : Monitor(spec.contract, spec.confidence),
      spec_(std::move(spec)),
      stepper_(spec_.automaton) {}

std::vector<Monitor::Key> AutomatonMonitor::subscribe(sim::Trace& trace) {
  trace_ = &trace;
  const sim::TraceId write = trace.intern_category("rte.write");
  std::vector<Key> keys;
  for (const auto& rule : spec_.labels) {
    rule_subjects_.push_back(trace.intern_subject(rule.subject));
    keys.push_back({write, rule_subjects_.back()});
  }
  return keys;
}

void AutomatonMonitor::observe(const sim::TraceEvent& rec) {
  const AutomatonSpec::LabelRule* rule = nullptr;
  for (std::size_t i = 0; i < rule_subjects_.size(); ++i) {
    if (rule_subjects_[i] == rec.subject_id) {
      rule = &spec_.labels[i];
      break;
    }
  }
  if (rule == nullptr) return;
  ++events_;
  note_observation();
  if (anchor_pending_) {
    last_event_ = rec.when;
    anchor_pending_ = false;
  }
  const sim::Duration tick = spec_.tick > 0 ? spec_.tick : 1;
  const std::int64_t delay = (rec.when - last_event_) / tick;
  last_event_ = rec.when;
  const int before = stepper_.location();
  if (stepper_.step(delay, rule->label)) {
    streak_ = 0;
    return;
  }
  Violation v;
  v.subject = trace_ != nullptr
                  ? std::string(trace_->subject_name(rec.subject_id))
                  : std::string();
  v.blame = rule->blame;
  v.kind = "automaton";
  v.observed = delay;
  v.bound = 0;
  v.when = rec.when;
  v.streak = ++streak_;
  v.detail = stepper_.in_error()
                 ? "entered error location '" +
                       spec_.automaton.location_name(stepper_.location()) + "'"
                 : "event '" + rule->label + "' stuck in location '" +
                       spec_.automaton.location_name(before) + "'";
  // Self-heal: resume checking from the initial state so one glitch does
  // not blind the observer for the rest of the run.
  stepper_.reset();
  raise(std::move(v));
}

void AutomatonMonitor::resync() {
  stepper_.reset();
  streak_ = 0;
  anchor_pending_ = true;
}

}  // namespace orte::rv
