#include "vfb/system.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "validation/validator.hpp"

namespace orte::vfb {

System::System(sim::Kernel& kernel, sim::Trace& trace,
               const Composition& model, DeploymentPlan plan)
    : kernel_(kernel), trace_(trace), model_(model), plan_(std::move(plan)) {
  build();
}

System::EcuCtx& System::ctx(const std::string& ecu_name) {
  auto it = ecus_.find(ecu_name);
  if (it == ecus_.end()) {
    throw std::invalid_argument("unknown ECU " + ecu_name);
  }
  return it->second;
}

void System::build() {
  // One lowering: the deployment the rules judge is the one instantiated
  // below. Its timing analysis (the holistic fixpoint) runs once: V9 judges
  // it and build_monitors stamps its chain bounds into each LatencySpec.
  lowering_ = lower(model_, plan_);
  std::vector<validation::ChainBound> bounds;
  {
    validation::ChainAnalysis chains =
        validation::analyze_chains(lowering_, model_.bound_contracts());
    // Strict-mode static validation: the full rule set runs over the model
    // *and* the deployment plan before any runtime object exists. Any
    // error-severity diagnostic aborts generation with the complete
    // rendered report — the one validation::validate(model, plan) returns;
    // warnings (e.g. V4 race hazards) and infos are tolerated here.
    if (const validation::Diagnostics report =
            validation::validate_lowering(model_, plan_, lowering_, chains);
        report.has_errors()) {
      throw std::invalid_argument("System: model validation failed\n" +
                                  report.render());
    }
    bounds = std::move(chains.bounds);  // the responses are freed here
  }
  if (!lowering_.problems.empty()) {
    // The validator rejects everything lower() skips, so reaching this is
    // a validator gap, not a user error.
    throw std::logic_error("internal: " + lowering_.problems.front().message +
                           " escaped validation");
  }
  // Instantiation reads only tasks, frames, routes and monitors: free the
  // dataflow and flow resolution now (exchanging, since assigning {} keeps
  // a vector's capacity), so the runtime objects reuse their memory.
  (void)std::exchange(lowering_.edges, {});
  (void)std::exchange(lowering_.runnables, {});
  (void)std::exchange(lowering_.flows, {});
  (void)std::exchange(lowering_.writer_task, {});
  (void)std::exchange(lowering_.periodic_load, {});

  // ---- Bus + per-ECU infrastructure ----------------------------------------
  if (plan_.bus == BusKind::kCan) {
    can_ = std::make_unique<can::CanBus>(kernel_, trace_, plan_.can);
  } else {
    flexray_ = std::make_unique<flexray::FlexRayBus>(kernel_, trace_,
                                                     lowering_.flexray);
  }
  for (const auto& name : lowering_.ecus) {
    EcuCtx c;
    c.ecu = std::make_unique<os::Ecu>(kernel_, trace_, name);
    c.com = std::make_unique<bsw::Com>(kernel_, trace_);
    c.rte = std::make_unique<Rte>(kernel_, trace_, model_, name);
    c.controller = plan_.bus == BusKind::kCan
                       ? static_cast<net::Controller*>(&can_->attach())
                       : static_cast<net::Controller*>(&flexray_->attach());
    ecus_.emplace(name, std::move(c));
  }

  build_com();
  for (const auto& route : lowering_.routes) {
    const DataElement& elem = *route.element;
    ctx(route.ecu).rte->add_local_route(route.sender_key, route.receiver_key,
                                        elem.queued, elem.init);
  }
  build_tasks();
  if (plan_.runtime_verification) build_monitors(bounds);
  if (plan_.alive_supervision) build_alive_supervision();

  // Keep what task_of() and fault admission read: the ECUs, tasks, PDUs and
  // written keys.
  (void)std::exchange(lowering_.tables, {});
  (void)std::exchange(lowering_.signals, {});
  (void)std::exchange(lowering_.routes, {});
  (void)std::exchange(lowering_.monitors, {});
}

std::size_t System::signal_count() const {
  std::size_t n = 0;  // every signal rides in exactly one PDU
  for (const auto& pdu : lowering_.pdus) n += pdu.signals.size();
  return n;
}

void System::build_com() {
  for (const auto& pdu : lowering_.pdus) {
    EcuCtx& sender = ctx(pdu.sender_ecu);
    bsw::IPduConfig pdu_cfg;
    pdu_cfg.name = pdu.name;
    pdu_cfg.frame_id = pdu.frame_id;
    pdu_cfg.length_bytes = pdu.bytes;
    sender.com->add_tx_ipdu(pdu_cfg, *sender.controller);
    if (plan_.bus == BusKind::kFlexRay) {
      flexray_->assign_static_slot(
          pdu.frame_id,
          static_cast<flexray::FlexRayController&>(*sender.controller));
    }

    // Receiving ECUs of this PDU and which of its signals each consumes.
    std::map<std::string,
             std::vector<std::tuple<const LoweredSignal*, std::size_t,
                                    std::vector<std::string>>>>
        rx_by_ecu;

    for (const auto& [index, offset] : pdu.signals) {
      const LoweredSignal& signal = lowering_.signals[index];
      bsw::SignalConfig sig;
      sig.name = signal.name;
      sig.ipdu = pdu.name;
      sig.bit_offset = offset;
      sig.bit_length = signal.element->bit_length;
      sender.com->add_signal(sig);  // a write transmits the whole packed PDU
      sender.rte->add_remote_route(signal.sender_key, *sender.com,
                                   signal.name);
      std::map<std::string, std::vector<std::string>> keys_by_ecu;
      for (const auto& [ecu_name, receiver_key] : signal.receivers) {
        keys_by_ecu[ecu_name].push_back(receiver_key);
      }
      for (auto& [ecu_name, keys] : keys_by_ecu) {
        rx_by_ecu[ecu_name].emplace_back(&signal, offset, std::move(keys));
      }
    }

    for (const auto& [ecu_name, consumed] : rx_by_ecu) {
      EcuCtx& receiver = ctx(ecu_name);
      receiver.com->add_rx_ipdu(pdu_cfg, *receiver.controller);
      for (const auto& [signal, offset, keys] : consumed) {
        const DataElement& elem = *signal->element;
        bsw::SignalConfig sig;
        sig.name = signal->name;
        sig.ipdu = pdu.name;
        sig.bit_offset = offset;
        sig.bit_length = elem.bit_length;
        receiver.com->add_signal(sig);
        for (const auto& key : keys) {
          receiver.rte->add_remote_receiver(key, *receiver.com, signal->name,
                                            elem.queued, elem.init);
        }
      }
    }
  }
}

int System::node_of(const std::string& ecu_name) const {
  const auto& ecus = lowering_.ecus;
  for (std::size_t i = 0; i < ecus.size(); ++i) {
    if (ecus[i] == ecu_name) return static_cast<int>(i);
  }
  return -1;
}

void System::build_monitors(
    const std::vector<validation::ChainBound>& bounds) {
  registry_ = std::make_unique<rv::MonitorRegistry>(trace_);
  const auto& monitors = lowering_.monitors;
  for (std::size_t i = 0; i < monitors.size(); ++i) {
    const MonitorEntry& m = monitors[i];
    switch (m.kind) {
      case MonitorEntry::Kind::kDeadline:
        // Bound = the activation period (the implicit AUTOSAR deadline).
        // Event tasks keep a monitor too: deadline-miss records still
        // surface when a budget/deadline is configured.
        registry_->add_deadline({.contract = m.contract,
                                 .task = m.subject,
                                 .blame = m.blame,
                                 .deadline = m.deadline});
        break;
      case MonitorEntry::Kind::kArrival:
        registry_->add_arrival({.contract = m.contract,
                                .subject = m.subject,
                                .blame = m.blame,
                                .period = m.clause->timing.period,
                                .jitter = m.clause->timing.jitter,
                                .confidence = m.clause->confidence});
        break;
      case MonitorEntry::Kind::kRangeWrite:
      case MonitorEntry::Kind::kRangeDeliver:
        // A guarantee judges the value as the component emitted it, an
        // assumption the value as it ARRIVED at the consumer's receiver slot.
        registry_->add_range(
            {.contract = m.contract,
             .subject = m.subject,
             .category = m.kind == MonitorEntry::Kind::kRangeWrite
                             ? "rte.write"
                             : "rte.deliver",
             .report_subject = m.report_subject,
             .blame = m.blame,
             .range = m.clause->range,
             .confidence = m.clause->confidence});
        break;
      case MonitorEntry::Kind::kLatency: {
        // Each spec also records the holistic static bound of its chain, so
        // the monitor carries both halves of the static/dynamic cross-check.
        // Only a chain ending in a data-received task gets its bound
        // stamped: there the monitor's write->activation span is covered by
        // the event task's holistic response. For periodic sinks the monitor
        // measures sampling age (write -> next periodic activation), which
        // the delivery-path bound deliberately does not claim to cover.
        sim::Duration static_bound = 0;
        for (const auto& cb : bounds) {
          if (cb.contract == m.contract && cb.instance == m.sink &&
              cb.flow == m.clause->flow && cb.computable &&
              !cb.sink_task.empty()) {
            static_bound = cb.bound;
          }
        }
        registry_->add_latency({.contract = m.contract,
                                .source_subject = m.subject,
                                .sink_subject = m.sink,
                                .sink_detail = m.sink_runnable,
                                .blame = m.blame,
                                .bound = m.clause->timing.latency,
                                .static_bound = static_bound,
                                .confidence = m.clause->confidence});
        break;
      }
      case MonitorEntry::Kind::kAutomaton: {
        // One observer per behavioural contract over all its label entries.
        rv::AutomatonSpec spec;
        spec.contract = m.contract;
        spec.automaton = m.behaviour->automaton;
        spec.tick = m.behaviour->tick;
        spec.confidence = m.behaviour->confidence;
        for (; i < monitors.size() &&
               monitors[i].kind == MonitorEntry::Kind::kAutomaton &&
               monitors[i].behaviour == m.behaviour;
             ++i) {
          spec.labels.push_back(
              {monitors[i].subject, monitors[i].label, monitors[i].blame});
        }
        --i;
        registry_->add_automaton(std::move(spec));
        break;
      }
      case MonitorEntry::Kind::kAlive:
        break;  // watchdog supervision, see build_alive_supervision
    }
  }

  // Containment reaction: when escalation fires, silence the offending
  // instance's outputs at its RTE.
  registry_->quarantine_with(
      [this](const std::string& instance, const rv::Violation&) {
        if (plan_.instances.find(instance) != plan_.instances.end()) {
          quarantine(instance);
        }
      });
  // Rehabilitation reaction: when a contract's DTC ages out, restore the
  // instance's delivery — the release half of the closed error-handling
  // loop; no integrator code has to call Rte::release by hand.
  registry_->release_with([this](const std::string& instance) {
    const auto dep = plan_.instances.find(instance);
    if (dep != plan_.instances.end()) {
      ctx(dep->second.ecu).rte->release(instance);
    }
  });
  registry_->recover_to(plan_.recovery_mode);
}

void System::build_alive_supervision() {
  // Every lowered heartbeat is one watchdog entity on its producer's ECU. A
  // key guaranteed at several periods is supervised at the LARGEST one (the
  // weakest heartbeat every guarantee still implies).
  std::map<std::string, std::map<std::string, Heartbeat>> per_ecu;
  for (const auto& m : lowering_.monitors) {
    if (m.kind != MonitorEntry::Kind::kAlive) continue;
    const auto dep = plan_.instances.find(m.blame);
    if (dep == plan_.instances.end()) continue;
    Heartbeat& hb = per_ecu[dep->second.ecu][m.subject];
    if (m.clause->timing.period > hb.period) {
      hb = {m.contract, m.blame, m.clause->timing.period};
    }
  }
  if (per_ecu.empty()) return;

  for (auto& [ecu_name, keys] : per_ecu) {
    // Supervision cycle: twice the slowest supervised period on the ECU, so
    // every nominal cycle sees >= 2 indications of every entity — robust
    // against release phase and WCET-overrun backlogs without tuning.
    sim::Duration slowest = 0;
    for (const auto& [key, hb] : keys) {
      slowest = std::max(slowest, hb.period);
    }
    auto wdg =
        std::make_unique<bsw::WatchdogManager>(kernel_, trace_, 2 * slowest);
    for (const auto& [key, hb] : keys) {
      wdg->supervise({.entity = key,
                      .min_indications = 1,
                      .failed_cycles_tolerance = 1});
      heartbeats_[key] = hb;
      checkpoint_routes_[trace_.intern_subject(key)] = wdg.get();
    }
    // Expiry -> rv pipeline: the watchdog is the one detector that senses
    // the ABSENCE of writes, so a fail-silent producer (kTaskCrash) becomes
    // a first-class "alive" violation blaming the producer — attribution
    // lands on the crashed instance, inside its containment domain.
    wdg->on_violation([this](const std::string& entity, std::uint32_t count) {
      if (registry_ == nullptr) return;
      const Heartbeat& hb = heartbeats_.at(entity);
      rv::Violation v;
      v.contract = hb.contract;
      v.subject = entity;
      v.blame = hb.blame;
      v.kind = "alive";
      v.observed = count;
      v.bound = 1;  // min indications per supervision cycle
      v.when = kernel_.now();
      v.detail = "watchdog alive-supervision expiry";
      registry_->report_external(v);
    });
    watchdogs_[ecu_name] = std::move(wdg);
  }

  // Checkpoint feed: a supervised key indicates liveness whenever its RTE
  // publishes under it — including quarantined publishes (a sanctioned but
  // alive producer keeps its heartbeat; quarantine is containment, not
  // death). Routed on interned IDs, so unsupervised traffic costs one map
  // miss.
  const sim::TraceId write_id = trace_.intern_category("rte.write");
  const sim::TraceId qdrop_id = trace_.intern_category("rte.quarantine_drop");
  trace_.subscribe_ids(
      [this, write_id, qdrop_id](const sim::TraceEvent& ev) {
        if (ev.category_id != write_id && ev.category_id != qdrop_id) return;
        const auto it = checkpoint_routes_.find(ev.subject_id);
        if (it == checkpoint_routes_.end()) return;
        it->second->checkpoint(trace_.subject_name(ev.subject_id));
      });
}

void System::quarantine(const std::string& instance) {
  const auto dep = plan_.instances.find(instance);
  if (dep == plan_.instances.end()) {
    throw std::invalid_argument("System::quarantine: unknown instance " +
                                instance);
  }
  ctx(dep->second.ecu).rte->quarantine(instance);
}

void System::build_tasks() {
  for (const auto& ecu_name : lowering_.ecus) {
    EcuCtx& c = ctx(ecu_name);

    // Every runnable is bound to its RTE here, after all routes are wired:
    // its segments hold the binding, so no job resolves an access again.
    Rte* rte = c.rte.get();
    auto make_segment = [rte](const LoweredRunnable& lr,
                              Rte::Binding* binding) {
      // Inline the WCET of declared synchronous server calls (the RTE
      // executes them in the caller's context).
      const Runnable* runnable = lr.runnable;
      const sim::Duration inlined = lr.inlined;
      os::Segment seg;
      seg.duration = [runnable, inlined]() -> sim::Duration {
        return (runnable->execution_time ? runnable->execution_time() : 0) +
               inlined;
      };
      seg.before = [rte, binding] { rte->capture_implicit(*binding); };
      seg.after = [rte, binding] { rte->run_behavior(*binding); };
      return seg;
    };

    // Time-triggered deployment: periodic tasks become table-activated by
    // the dispatch table the lowering synthesized.
    if (const auto table = lowering_.tables.find(ecu_name);
        table != lowering_.tables.end()) {
      c.ecu->set_schedule_table(table->second.entries, table->second.cycle);
    }

    for (const auto& t : lowering_.tasks) {
      if (t.ecu != ecu_name) continue;
      const InstanceDeployment& dep = plan_.instances.at(t.instance);
      os::TaskConfig cfg;
      cfg.name = t.name;
      cfg.priority = t.priority;
      cfg.budget = dep.budget;
      if (!t.periodic()) {
        cfg.max_pending_activations = 8;
        os::Task& task = c.ecu->add_task(cfg);
        const LoweredRunnable& lr = t.runnables.front();
        task.add_segment(
            make_segment(lr, &rte->bind(t.instance, *lr.runnable)));
        os::Ecu* ecu = c.ecu.get();
        os::Task* task_ptr = &task;
        rte->on_update(t.trigger_key,
                       [ecu, task_ptr] { ecu->activate(*task_ptr); });
        continue;
      }
      cfg.period = t.table_dispatched ? 0 : t.period;  // TT: table-activated
      if (t.table_dispatched) cfg.relative_deadline = t.period;
      os::Task& task = c.ecu->add_task(cfg);
      // AUTOSAR implicit semantics are task-scoped: ALL implicit inputs of
      // the task's runnables are snapshotted once when the task starts, so
      // multi-element / multi-runnable reads within one job are consistent.
      std::vector<Rte::Binding*> bindings;
      for (const auto& lr : t.runnables) {
        bindings.push_back(&rte->bind(t.instance, *lr.runnable));
      }
      for (std::size_t i = 0; i < t.runnables.size(); ++i) {
        os::Segment seg = make_segment(t.runnables[i], bindings[i]);
        seg.before = {};
        if (i == 0) {
          seg.before = [rte, bindings] {
            for (Rte::Binding* b : bindings) rte->capture_implicit(*b);
          };
        }
        task.add_segment(std::move(seg));
      }
    }
  }
}

void System::start() {
  if (started_) throw std::logic_error("System::start called twice");
  started_ = true;
  for (auto& [name, c] : ecus_) c.ecu->start();
  if (flexray_) flexray_->start();
  for (auto& [ecu_name, wdg] : watchdogs_) wdg->start();
}

void System::run_for(sim::Duration horizon) {
  if (!started_) start();
  kernel_.run_until(kernel_.now() + horizon);
}

validation::ChainAnalysis System::analyze() const {
  return validation::analyze_chains(lower(model_, plan_),
                                    model_.bound_contracts());
}

os::Ecu& System::ecu(const std::string& name) { return *ctx(name).ecu; }
Rte& System::rte(const std::string& ecu_name) { return *ctx(ecu_name).rte; }
bsw::Com& System::com(const std::string& ecu_name) {
  return *ctx(ecu_name).com;
}

os::Task* System::task_of(const std::string& instance, sim::Duration period) {
  for (const auto& t : lowering_.tasks) {
    if (t.instance == instance && t.period == period && t.periodic()) {
      return ctx(t.ecu).ecu->find_task(t.name);
    }
  }
  return nullptr;
}

}  // namespace orte::vfb
