#include "vfb/system.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <tuple>

#include "analysis/frame_packing.hpp"
#include "analysis/tt_schedule.hpp"
#include "validation/validator.hpp"

namespace orte::vfb {

namespace {

std::string periodic_task_name(const std::string& instance,
                               sim::Duration period) {
  return "tk|" + instance + "|" + std::to_string(period);
}
std::string event_task_name(const std::string& instance,
                            const std::string& runnable) {
  return "tk|" + instance + "|" + runnable;
}

/// One cross-ECU data element to be carried as a COM signal.
struct SignalSpec {
  std::string name;        ///< COM signal / I-PDU name.
  std::string sender_key;  ///< Rte sender key.
  std::string sender_ecu;
  std::size_t bit_length = 32;
  std::uint64_t init = 0;
  bool queued = false;
  std::size_t queue_length = Rte::kDefaultQueueLength;
  QueueOverflow overflow = QueueOverflow::kReject;
  sim::Duration sort_period = sim::kForever;
  /// (receiver ECU, receiver Rte key) pairs.
  std::vector<std::pair<std::string, std::string>> receivers;
  std::uint32_t frame_id = 0;
};

}  // namespace

System::System(sim::Kernel& kernel, sim::Trace& trace,
               const Composition& model, DeploymentPlan plan)
    : kernel_(kernel), trace_(trace), model_(model), plan_(std::move(plan)) {
  build();
}

const InstanceDeployment& System::deployment(
    const std::string& instance) const {
  auto it = plan_.instances.find(instance);
  if (it == plan_.instances.end()) {
    // The validator (rule V1) rejects undeployed instances before generation
    // starts, so reaching this is a generator defect, not a user error.
    throw std::logic_error("internal: no deployment for instance " + instance +
                           " escaped validation");
  }
  return it->second;
}

System::EcuCtx& System::ctx(const std::string& ecu_name) {
  auto it = ecus_.find(ecu_name);
  if (it == ecus_.end()) {
    throw std::invalid_argument("unknown ECU " + ecu_name);
  }
  return it->second;
}

sim::Duration System::inlined_wcet(const std::string& instance,
                                   const Runnable& runnable) const {
  // Malformed or unresolvable server calls are rejected by the validator
  // (rules V1/V2/V3) before generation; the throws below are backstops for
  // validator gaps, carrying instance + runnable to locate the defect.
  const auto gap = [&](const std::string& what) -> std::logic_error {
    return std::logic_error("internal: " + what + " (instance " + instance +
                            ", runnable " + runnable.name +
                            ") escaped validation");
  };
  sim::Duration inlined = 0;
  for (const auto& call : runnable.server_calls) {
    const auto dot = call.find('.');
    if (dot == std::string::npos) {
      throw gap("server call must be 'port.operation': " + call);
    }
    const std::string port = call.substr(0, dot);
    const std::string op = call.substr(dot + 1);
    const Connector* conn = model_.connection_to(instance, port);
    if (conn == nullptr) {
      throw gap("server call on unconnected port " + instance + "." + port);
    }
    if (deployment(conn->from_instance).ecu != deployment(instance).ecu) {
      throw gap("cross-ECU server call: " + call);
    }
    const Port& server_port =
        model_.port_of(conn->from_instance, conn->from_port);
    const PortInterface& iface = model_.interface(server_port.interface);
    auto oit =
        std::find_if(iface.operations.begin(), iface.operations.end(),
                     [&](const Operation& o) { return o.name == op; });
    if (oit == iface.operations.end()) {
      throw gap("unknown operation in server call: " + call);
    }
    inlined += oit->wcet;
  }
  return inlined;
}

sim::Duration System::writer_period(const std::string& instance,
                                    const std::string& port,
                                    const std::string& element) const {
  const ComponentType& t = model_.type(model_.instance(instance).type);
  sim::Duration best = sim::kForever;
  for (const auto& r : t.runnables) {
    if (r.trigger.kind != RunnableTrigger::Kind::kTiming) continue;
    for (const auto& acc : r.accesses) {
      const bool writes = acc.kind == DataAccessKind::kImplicitWrite ||
                          acc.kind == DataAccessKind::kExplicitWrite;
      if (writes && acc.port == port && acc.element == element) {
        best = std::min(best, r.trigger.period);
      }
    }
  }
  return best;
}

void System::build() {
  // Strict-mode static validation: the full rule set (V1..V7) runs over the
  // model *and* the deployment plan before any runtime object exists. Any
  // error-severity diagnostic aborts generation with the complete rendered
  // report; warnings (e.g. V4 race hazards) and infos are tolerated here and
  // can be inspected via validation::validate(model, plan) directly.
  const validation::Diagnostics report = validation::validate(model_, plan_);
  if (report.has_errors()) {
    throw std::invalid_argument("System: model validation failed\n" +
                                report.render());
  }

  // ECU set, in deterministic (sorted) order.
  std::set<std::string> names;
  for (const auto& [inst, dep] : plan_.instances) names.insert(dep.ecu);
  ecu_names_.assign(names.begin(), names.end());

  // ---- Derive cross-ECU signals -------------------------------------------
  std::vector<SignalSpec> signals;
  for (const auto& conn : model_.connectors()) {
    const Port& from = model_.port_of(conn.from_instance, conn.from_port);
    const PortInterface& iface = model_.interface(from.interface);
    const std::string& sender_ecu = deployment(conn.from_instance).ecu;
    const std::string& receiver_ecu = deployment(conn.to_instance).ecu;
    if (iface.kind == PortInterface::Kind::kClientServer) {
      if (sender_ecu != receiver_ecu) {
        // Rejected by validator rule V2; backstop for validator gaps.
        throw std::logic_error(
            "internal: client-server connector spans ECUs (unsupported): " +
            conn.from_instance + " -> " + conn.to_instance +
            " escaped validation");
      }
      continue;
    }
    if (sender_ecu == receiver_ecu) continue;
    for (const auto& elem : iface.elements) {
      const std::string sender_key =
          Rte::key(conn.from_instance, conn.from_port, elem.name);
      const std::string receiver_key =
          Rte::key(conn.to_instance, conn.to_port, elem.name);
      auto it = std::find_if(signals.begin(), signals.end(),
                             [&](const SignalSpec& s) {
                               return s.sender_key == sender_key;
                             });
      if (it == signals.end()) {
        SignalSpec spec;
        spec.name = "sg|" + sender_key;
        spec.sender_key = sender_key;
        spec.sender_ecu = sender_ecu;
        spec.bit_length = elem.bit_length;
        spec.init = elem.init;
        spec.queued = elem.queued;
        spec.queue_length = elem.queue_length;
        spec.overflow = elem.overflow;
        spec.sort_period =
            writer_period(conn.from_instance, conn.from_port, elem.name);
        signals.push_back(std::move(spec));
        it = signals.end() - 1;
      }
      it->receivers.emplace_back(receiver_ecu, receiver_key);
    }
  }
  signal_count_ = signals.size();

  // ---- Pack signals into I-PDUs ---------------------------------------------
  // Signals from the same sender ECU with the same producer period share a
  // frame (period-grouped FFD via the analysis library): every frame pays
  // header + stuffing overhead once for up to 64 payload bits.
  struct PduSpec {
    std::string name;
    std::string sender_ecu;
    sim::Duration sort_period = sim::kForever;
    std::uint32_t frame_id = 0;
    std::size_t length_bytes = 0;
    std::vector<std::pair<SignalSpec*, std::size_t>> signals;  // +bit offset
  };
  std::vector<PduSpec> pdus;
  {
    std::map<std::pair<std::string, sim::Duration>, std::vector<SignalSpec*>>
        by_group;
    for (auto& s : signals) {
      by_group[{s.sender_ecu, s.sort_period}].push_back(&s);
    }
    for (auto& [key, group] : by_group) {
      std::vector<analysis::PackSignal> pack_in;
      pack_in.reserve(group.size());
      for (const SignalSpec* s : group) {
        // pack_signals only needs a positive period for utilization math;
        // event-produced signals (kForever) use a placeholder.
        pack_in.push_back({s->name, s->bit_length,
                           key.second == sim::kForever ? sim::seconds(1)
                                                       : key.second});
      }
      const auto packed = analysis::pack_signals(
          pack_in, 64, plan_.can.bitrate_bps);
      for (std::size_t fi = 0; fi < packed.frames.size(); ++fi) {
        const auto& frame = packed.frames[fi];
        PduSpec pdu;
        pdu.name = "pdu|" + key.first + "|" +
                   std::to_string(key.second == sim::kForever
                                      ? -1
                                      : key.second) +
                   "|" + std::to_string(fi);
        pdu.sender_ecu = key.first;
        pdu.sort_period = key.second;
        pdu.length_bytes = (frame.used_bits + 7) / 8;
        for (std::size_t si = 0; si < frame.signals.size(); ++si) {
          auto it = std::find_if(group.begin(), group.end(),
                                 [&](const SignalSpec* s) {
                                   return s->name == frame.signals[si];
                                 });
          pdu.signals.emplace_back(*it, frame.offsets[si]);
        }
        pdus.push_back(std::move(pdu));
      }
    }
  }
  // Frame id assignment: rate-monotonic priority order on CAN, dedicated
  // static slots on FlexRay.
  std::sort(pdus.begin(), pdus.end(), [](const PduSpec& a, const PduSpec& b) {
    if (a.sort_period != b.sort_period) return a.sort_period < b.sort_period;
    return a.name < b.name;
  });
  for (std::size_t i = 0; i < pdus.size(); ++i) {
    pdus[i].frame_id =
        plan_.bus == BusKind::kCan
            ? plan_.can_base_id + static_cast<std::uint32_t>(i)
            : static_cast<std::uint32_t>(i + 1);  // FlexRay slot id
    analyzed_pdus_.push_back(
        {pdus[i].name, pdus[i].frame_id, pdus[i].length_bytes,
         pdus[i].sort_period == sim::kForever ? 0 : pdus[i].sort_period});
  }

  // ---- Bus + per-ECU infrastructure ----------------------------------------
  if (plan_.bus == BusKind::kCan) {
    can_ = std::make_unique<can::CanBus>(kernel_, trace_, plan_.can);
  } else {
    plan_.flexray.static_slots =
        std::max(plan_.flexray.static_slots, pdus.size());
    plan_.flexray.static_payload_bytes = std::max(
        plan_.flexray.static_payload_bytes, static_cast<std::size_t>(8));
    flexray_ =
        std::make_unique<flexray::FlexRayBus>(kernel_, trace_, plan_.flexray);
  }
  for (const auto& name : ecu_names_) {
    EcuCtx c;
    c.ecu = std::make_unique<os::Ecu>(kernel_, trace_, name);
    c.com = std::make_unique<bsw::Com>(kernel_, trace_);
    c.rte = std::make_unique<Rte>(kernel_, trace_, model_, name);
    c.controller = plan_.bus == BusKind::kCan
                       ? static_cast<net::Controller*>(&can_->attach())
                       : static_cast<net::Controller*>(&flexray_->attach());
    ecus_.emplace(name, std::move(c));
  }

  // ---- COM configuration ----------------------------------------------------
  for (const auto& pspec : pdus) {
    EcuCtx& sender = ctx(pspec.sender_ecu);
    bsw::IPduConfig pdu_cfg;
    pdu_cfg.name = pspec.name;
    pdu_cfg.frame_id = pspec.frame_id;
    pdu_cfg.length_bytes = pspec.length_bytes;
    pdu_cfg.mode = bsw::TxMode::kDirect;
    sender.com->add_tx_ipdu(pdu_cfg, *sender.controller);
    if (plan_.bus == BusKind::kFlexRay) {
      flexray_->assign_static_slot(
          pspec.frame_id,
          static_cast<flexray::FlexRayController&>(*sender.controller));
    }

    // Receiving ECUs of this PDU and which of its signals each consumes.
    std::map<std::string,
             std::vector<std::tuple<const SignalSpec*, std::size_t,
                                    std::vector<std::string>>>>
        rx_by_ecu;

    for (const auto& [sspec, offset] : pspec.signals) {
      bsw::SignalConfig sig;
      sig.name = sspec->name;
      sig.ipdu = pspec.name;
      sig.bit_offset = offset;
      sig.bit_length = sspec->bit_length;
      sig.triggered = true;  // a write transmits the whole packed PDU
      sender.com->add_signal(sig);
      sender.rte->add_remote_route(sspec->sender_key, *sender.com,
                                   sspec->name);
      std::map<std::string, std::vector<std::string>> keys_by_ecu;
      for (const auto& [ecu_name, receiver_key] : sspec->receivers) {
        keys_by_ecu[ecu_name].push_back(receiver_key);
      }
      for (auto& [ecu_name, keys] : keys_by_ecu) {
        rx_by_ecu[ecu_name].emplace_back(sspec, offset, std::move(keys));
      }
    }

    for (const auto& [ecu_name, consumed] : rx_by_ecu) {
      EcuCtx& receiver = ctx(ecu_name);
      receiver.com->add_rx_ipdu(pdu_cfg, *receiver.controller);
      for (const auto& [sspec, offset, keys] : consumed) {
        bsw::SignalConfig sig;
        sig.name = sspec->name;
        sig.ipdu = pspec.name;
        sig.bit_offset = offset;
        sig.bit_length = sspec->bit_length;
        receiver.com->add_signal(sig);
        for (const auto& key : keys) {
          receiver.rte->add_remote_receiver(
              key, *receiver.com, sspec->name, sspec->queued, sspec->init,
              sspec->queue_length, sspec->overflow);
        }
      }
    }
  }

  // ---- Local routes ----------------------------------------------------------
  for (const auto& conn : model_.connectors()) {
    const Port& from = model_.port_of(conn.from_instance, conn.from_port);
    const PortInterface& iface = model_.interface(from.interface);
    if (iface.kind != PortInterface::Kind::kSenderReceiver) continue;
    const std::string& sender_ecu = deployment(conn.from_instance).ecu;
    if (sender_ecu != deployment(conn.to_instance).ecu) continue;
    EcuCtx& c = ctx(sender_ecu);
    for (const auto& elem : iface.elements) {
      c.rte->add_local_route(
          Rte::key(conn.from_instance, conn.from_port, elem.name),
          Rte::key(conn.to_instance, conn.to_port, elem.name), elem.queued,
          elem.init, elem.queue_length, elem.overflow);
    }
  }

  build_tasks();
  // Static end-to-end bounds (holistic fixpoint over the generated chains),
  // computed once: build_monitors stamps them into each LatencySpec and
  // analyze() reports them next to the task/PDU responses.
  if (!model_.bound_contracts().empty()) {
    chain_bounds_ =
        validation::analyze_chains(model_, plan_, model_.bound_contracts())
            .bounds;
  }
  if (plan_.runtime_verification) build_monitors();
  if (plan_.alive_supervision) build_alive_supervision();
}

std::vector<std::string> System::resolve_flow(const std::string& instance,
                                              const std::string& flow) const {
  // Flow naming follows the validator convention: "port" covers every element
  // of the port's interface, "port.element" one element. Writes are traced
  // under the *sender* key, so required-port flows resolve through the
  // feeding connector to the producer's key. Unresolvable names yield {} —
  // contracts may mention flows of ports a reduced deployment leaves
  // unconnected, and a monitor on nothing is worse than no monitor.
  const auto dot = flow.find('.');
  const std::string port = dot == std::string::npos ? flow : flow.substr(0, dot);
  const std::string element =
      dot == std::string::npos ? std::string() : flow.substr(dot + 1);

  const ComponentInstance* inst = model_.find_instance(instance);
  if (inst == nullptr) return {};
  const ComponentType* type = model_.find_type(inst->type);
  if (type == nullptr) return {};
  const Port* p = nullptr;
  for (const auto& candidate : type->ports) {
    if (candidate.name == port) p = &candidate;
  }
  if (p == nullptr) return {};
  const PortInterface* iface = model_.find_interface(p->interface);
  if (iface == nullptr || iface->kind != PortInterface::Kind::kSenderReceiver) {
    return {};
  }

  std::string src_instance = instance;
  std::string src_port = port;
  if (p->direction == PortDirection::kRequired) {
    const Connector* conn = model_.connection_to(instance, port);
    if (conn == nullptr) return {};
    src_instance = conn->from_instance;
    src_port = conn->from_port;
  }

  std::vector<std::string> subjects;
  for (const auto& elem : iface->elements) {
    if (!element.empty() && elem.name != element) continue;
    subjects.push_back(Rte::key(src_instance, src_port, elem.name));
  }
  return subjects;
}

int System::node_of(const std::string& ecu_name) const {
  for (std::size_t i = 0; i < ecu_names_.size(); ++i) {
    if (ecu_names_[i] == ecu_name) return static_cast<int>(i);
  }
  return -1;
}

std::vector<System::FlowEndpoint> System::resolve_flow_endpoints(
    const std::string& instance, const std::string& flow) const {
  const auto dot = flow.find('.');
  const std::string port =
      dot == std::string::npos ? flow : flow.substr(0, dot);
  const std::string element =
      dot == std::string::npos ? std::string() : flow.substr(dot + 1);

  const ComponentInstance* inst = model_.find_instance(instance);
  if (inst == nullptr) return {};
  const ComponentType* type = model_.find_type(inst->type);
  if (type == nullptr) return {};
  const Port* p = nullptr;
  for (const auto& candidate : type->ports) {
    if (candidate.name == port) p = &candidate;
  }
  if (p == nullptr || p->direction != PortDirection::kRequired) return {};
  const PortInterface* iface = model_.find_interface(p->interface);
  if (iface == nullptr || iface->kind != PortInterface::Kind::kSenderReceiver) {
    return {};
  }
  const Connector* conn = model_.connection_to(instance, port);
  if (conn == nullptr) return {};

  std::vector<FlowEndpoint> endpoints;
  for (const auto& elem : iface->elements) {
    if (!element.empty() && elem.name != element) continue;
    endpoints.push_back(
        FlowEndpoint{Rte::key(conn->from_instance, conn->from_port, elem.name),
                     Rte::key(instance, port, elem.name)});
  }
  return endpoints;
}

namespace {
/// A flow range of [INT64_MIN, INT64_MAX] is the FlowSpec default: no value
/// constraint was declared, so no monitor is synthesized for it.
bool range_constrained(const contracts::Interval& range) {
  return range.lo != INT64_MIN || range.hi != INT64_MAX;
}
}  // namespace

void System::build_monitors() {
  registry_ = std::make_unique<rv::MonitorRegistry>(trace_);

  // Contract name per instance (for labelling the task deadline monitors).
  std::map<std::string, std::string, std::less<>> contract_of;
  for (const auto& [instance, contract] : model_.bound_contracts()) {
    contract_of[instance] = contract.name;
  }

  // (1) Deadline monitors: one per generated task, bound = the activation
  // period (the implicit AUTOSAR deadline). Event tasks keep a monitor too —
  // deadline-miss records still surface when a budget/deadline is configured.
  for (const auto& t : analyzed_tasks_) {
    // Task names are "tk|<instance>|<period-or-runnable>".
    std::string instance;
    const auto bar = t.name.find('|');
    if (bar != std::string::npos) {
      const auto end = t.name.find('|', bar + 1);
      instance = t.name.substr(bar + 1, end == std::string::npos
                                            ? std::string::npos
                                            : end - bar - 1);
    }
    rv::DeadlineSpec spec;
    auto cit = contract_of.find(instance);
    spec.contract = cit != contract_of.end() ? cit->second : t.name;
    spec.task = t.name;
    spec.deadline = t.period;
    registry_->add_deadline(std::move(spec));
  }

  for (const auto& [instance, contract] : model_.bound_contracts()) {
    // (2) Arrival monitors: every guarantee with a contracted period watches
    // the instance's own output flow.
    for (const auto& g : contract.guarantees) {
      if (g.timing.period <= 0) continue;
      for (const auto& subject : resolve_flow(instance, g.flow)) {
        rv::ArrivalSpec spec;
        spec.contract = contract.name;
        spec.subject = subject;
        spec.period = g.timing.period;
        spec.jitter = g.timing.jitter;
        spec.confidence = g.confidence;
        registry_->add_arrival(std::move(spec));
      }
    }

    // (2b) Range monitors, guarantee side: every guarantee with a declared
    // value range watches the producer's own writes — the value as the
    // component emitted it, before any transport.
    for (const auto& g : contract.guarantees) {
      if (!range_constrained(g.range)) continue;
      for (const auto& subject : resolve_flow(instance, g.flow)) {
        rv::RangeSpec spec;
        spec.contract = contract.name;
        spec.subject = subject;
        spec.category = "rte.write";
        spec.range = g.range;
        spec.confidence = g.confidence;
        registry_->add_range(std::move(spec));
      }
    }

    // (2c) Range monitors, assumption side: every assumption with a declared
    // value range watches this instance's receiver slots ("rte.deliver" — the
    // value as it ARRIVED). Violations blame the feeding producer's key, so
    // escalation sanctions the component whose flow went bad (or whose
    // channel corrupted it), never the victim consuming the value.
    for (const auto& a : contract.assumptions) {
      if (!range_constrained(a.range)) continue;
      for (const auto& ep : resolve_flow_endpoints(instance, a.flow)) {
        rv::RangeSpec spec;
        spec.contract = contract.name;
        spec.subject = ep.receiver_key;
        spec.category = "rte.deliver";
        spec.report_subject = ep.producer_key;
        spec.range = a.range;
        spec.confidence = a.confidence;
        registry_->add_range(std::move(spec));
      }
    }

    // (3) Latency monitors: every assumption with a latency bound watches the
    // chain from the feeding producer's write to this instance's consuming
    // runnable activation. Each spec also records the holistic static bound
    // of the same chain (computed once below), so the monitor carries both
    // halves of the static/dynamic cross-check.
    for (const auto& a : contract.assumptions) {
      if (a.timing.latency <= 0) continue;
      const auto dot = a.flow.find('.');
      const std::string port =
          dot == std::string::npos ? a.flow : a.flow.substr(0, dot);
      const std::string element =
          dot == std::string::npos ? std::string() : a.flow.substr(dot + 1);
      // The chain tail: the data-received runnable this flow activates (when
      // one exists, its name disambiguates the "rte.runnable" records).
      std::string sink_detail;
      if (const ComponentInstance* inst = model_.find_instance(instance)) {
        if (const ComponentType* type = model_.find_type(inst->type)) {
          for (const auto& r : type->runnables) {
            if (r.trigger.kind == RunnableTrigger::Kind::kDataReceived &&
                r.trigger.port == port &&
                (element.empty() || r.trigger.element == element)) {
              sink_detail = r.name;
            }
          }
        }
      }
      // Only a chain ending in a data-received task gets its bound stamped:
      // there the monitor's write->activation span is covered by the event
      // task's holistic response. For periodic sinks the monitor measures
      // sampling age (write -> next periodic activation), which the
      // delivery-path bound deliberately does not claim to cover.
      sim::Duration static_bound = 0;
      for (const auto& cb : chain_bounds_) {
        if (cb.contract == contract.name && cb.instance == instance &&
            cb.flow == a.flow && cb.computable && !cb.sink_task.empty()) {
          static_bound = cb.bound;
        }
      }
      for (const auto& subject : resolve_flow(instance, a.flow)) {
        rv::LatencySpec spec;
        spec.contract = contract.name;
        spec.source_subject = subject;
        spec.sink_subject = instance;
        spec.sink_detail = sink_detail;
        spec.bound = a.timing.latency;
        spec.static_bound = static_bound;
        spec.confidence = a.confidence;
        registry_->add_latency(std::move(spec));
      }
    }

    // (4) Behavioural contract: one automaton observer per instance, label
    // rules compiled from the flow bindings.
    if (contract.behaviour.has_value()) {
      rv::AutomatonSpec spec;
      spec.contract = contract.name;
      spec.automaton = contract.behaviour->automaton;
      spec.tick = contract.behaviour->tick;
      spec.confidence = contract.behaviour->confidence;
      for (const auto& binding : contract.behaviour->bindings) {
        for (const auto& subject : resolve_flow(instance, binding.flow)) {
          spec.labels.push_back({"rte.write", subject, binding.label});
        }
      }
      if (!spec.labels.empty()) registry_->add_automaton(std::move(spec));
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
    if (plan_.instances.find(instance) != plan_.instances.end()) {
      ctx(deployment(instance).ecu).rte->release(instance);
    }
  });
  registry_->recover_to(plan_.recovery_mode);
}

void System::build_alive_supervision() {
  // Collect the supervised heartbeats: every periodic guarantee resolves to
  // sender keys; each key is one watchdog entity on its producer's ECU. A
  // key guaranteed at several periods is supervised at the LARGEST one (the
  // weakest heartbeat every guarantee still implies).
  struct Heartbeat {
    std::string contract;
    sim::Duration period = 0;
  };
  std::map<std::string, std::map<std::string, Heartbeat>> per_ecu;
  for (const auto& [instance, contract] : model_.bound_contracts()) {
    for (const auto& g : contract.guarantees) {
      if (g.timing.period <= 0) continue;
      for (const auto& key : resolve_flow(instance, g.flow)) {
        const std::string producer = key.substr(0, key.find('.'));
        const auto dep = plan_.instances.find(producer);
        if (dep == plan_.instances.end()) continue;
        Heartbeat& hb = per_ecu[dep->second.ecu][key];
        if (g.timing.period > hb.period) {
          hb.period = g.timing.period;
          hb.contract = contract.name;
        }
      }
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
      alive_contract_of_[key] = hb.contract;
      checkpoint_routes_[trace_.intern_subject(key)] = wdg.get();
    }
    // Expiry -> rv pipeline: the watchdog is the one detector that senses
    // the ABSENCE of writes, so a fail-silent producer (kTaskCrash) becomes
    // a first-class "alive" violation with the producer's key as subject —
    // blame attribution lands on the crashed instance, inside its
    // containment domain.
    wdg->on_violation([this](const std::string& entity, std::uint32_t count) {
      if (registry_ == nullptr) return;
      rv::Violation v;
      const auto cit = alive_contract_of_.find(entity);
      v.contract = cit != alive_contract_of_.end() ? cit->second : entity;
      v.subject = entity;
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
  ctx(deployment(instance).ecu).rte->quarantine(instance);
}

void System::build_tasks() {
  for (const auto& ecu_name : ecu_names_) {
    EcuCtx& c = ctx(ecu_name);

    for (const auto& p : plan_.partitions) {
      if (p.ecu != ecu_name) continue;
      os::PartitionConfig cfg;
      cfg.name = p.name;
      cfg.budget = p.budget;
      cfg.period = p.period;
      c.partition_ids[p.name] = c.ecu->add_partition(cfg);
    }

    // Collect (instance, period) groups and event runnables on this ECU.
    struct Group {
      std::string instance;
      sim::Duration period = 0;
      std::vector<const Runnable*> runnables;
    };
    std::vector<Group> groups;
    struct EventRunnable {
      std::string instance;
      const Runnable* runnable = nullptr;
    };
    std::vector<EventRunnable> events;

    for (const auto& inst : model_.instances()) {
      if (deployment(inst.name).ecu != ecu_name) continue;
      const ComponentType& t = model_.type(inst.type);
      for (const auto& r : t.runnables) {
        switch (r.trigger.kind) {
          case RunnableTrigger::Kind::kTiming: {
            auto git = std::find_if(groups.begin(), groups.end(),
                                    [&](const Group& g) {
                                      return g.instance == inst.name &&
                                             g.period == r.trigger.period;
                                    });
            if (git == groups.end()) {
              groups.push_back(Group{inst.name, r.trigger.period, {}});
              git = groups.end() - 1;
            }
            git->runnables.push_back(&r);
            break;
          }
          case RunnableTrigger::Kind::kDataReceived:
            events.push_back(EventRunnable{inst.name, &r});
            break;
          case RunnableTrigger::Kind::kInit:
            events.push_back(EventRunnable{inst.name, &r});  // handled below
            break;
        }
      }
    }

    // Rate-monotonic priorities per ECU: shorter period = higher priority.
    std::sort(groups.begin(), groups.end(), [](const Group& a, const Group& b) {
      if (a.period != b.period) return a.period < b.period;
      return a.instance < b.instance;
    });
    if (groups.size() > kMaxPeriodicTasksPerEcu) {
      // Rejected by validator rule V5; backstop for validator gaps.
      throw std::logic_error("internal: too many periodic tasks on ECU " +
                             ecu_name + " escaped validation");
    }

    // Every runnable is bound to its RTE here, after all routes are wired:
    // its segments hold the binding, so no job resolves an access again.
    Rte* rte = c.rte.get();
    auto make_segment = [this, rte](const std::string& instance,
                                    const Runnable* runnable,
                                    Rte::Binding* binding) {
      // Inline the WCET of declared synchronous server calls (the RTE
      // executes them in the caller's context).
      const sim::Duration inlined = inlined_wcet(instance, *runnable);
      os::Segment seg;
      seg.duration = [runnable, inlined]() -> sim::Duration {
        if (runnable->enabled_if && !runnable->enabled_if()) return 0;
        return (runnable->execution_time ? runnable->execution_time() : 0) +
               inlined;
      };
      seg.before = [rte, binding] { rte->capture_implicit(*binding); };
      seg.after = [rte, runnable, binding] {
        if (runnable->enabled_if && !runnable->enabled_if()) return;
        rte->run_behavior(*binding);
      };
      return seg;
    };

    // Time-triggered deployment: synthesize a dispatch table over the
    // runnables' declared WCET bounds; periodic tasks become table-activated.
    const bool tt = plan_.scheduling == SchedulingPolicy::kTimeTriggered;
    if (tt && !groups.empty()) {
      std::vector<analysis::TtJobSpec> specs;
      for (const auto& g : groups) {
        analysis::TtJobSpec spec;
        spec.task = periodic_task_name(g.instance, g.period);
        spec.period = g.period;
        for (const Runnable* r : g.runnables) {
          sim::Duration wcet = r->wcet_bound;
          if (wcet <= 0 && r->execution_time) wcet = r->execution_time();
          spec.wcet += wcet + inlined_wcet(g.instance, *r);
        }
        specs.push_back(std::move(spec));
      }
      const auto schedule = analysis::synthesize_schedule(specs);
      if (!schedule.has_value()) {
        throw std::invalid_argument(
            "time-triggered schedule synthesis failed for ECU " + ecu_name +
            " (WCET bounds do not fit non-preemptively)");
      }
      c.ecu->set_schedule_table(schedule->entries, schedule->cycle);
    }

    int rank = 0;
    for (const auto& g : groups) {
      const InstanceDeployment& dep = deployment(g.instance);
      os::TaskConfig cfg;
      cfg.name = periodic_task_name(g.instance, g.period);
      cfg.priority = kPeriodicBasePriority - rank;
      ++rank;
      cfg.period = tt ? 0 : g.period;  // TT: activated by the table
      if (tt) cfg.relative_deadline = g.period;  // keep miss monitoring
      cfg.budget = dep.budget;
      cfg.overrun_action = dep.overrun_action;
      if (!dep.partition.empty()) {
        cfg.partition = c.partition_ids.at(dep.partition);
      }
      {
        sim::Duration wcet = 0;
        for (const Runnable* r : g.runnables) {
          sim::Duration w = r->wcet_bound;
          if (w <= 0 && r->execution_time) w = r->execution_time();
          wcet += w + inlined_wcet(g.instance, *r);
        }
        analyzed_tasks_.push_back(
            {cfg.name, ecu_name, g.period, wcet, cfg.priority});
      }
      os::Task& task = c.ecu->add_task(cfg);
      // AUTOSAR implicit semantics are task-scoped: ALL implicit inputs of
      // the task's runnables are snapshotted once when the task starts, so
      // multi-element / multi-runnable reads within one job are consistent.
      std::vector<Rte::Binding*> bindings;
      for (const Runnable* r : g.runnables) {
        bindings.push_back(&rte->bind(g.instance, *r));
      }
      for (std::size_t i = 0; i < g.runnables.size(); ++i) {
        os::Segment seg = make_segment(g.instance, g.runnables[i], bindings[i]);
        seg.before = {};
        if (i == 0) {
          seg.before = [rte, bindings] {
            for (Rte::Binding* b : bindings) rte->capture_implicit(*b);
          };
        }
        task.add_segment(std::move(seg));
      }
    }

    for (const auto& e : events) {
      if (e.runnable->trigger.kind == RunnableTrigger::Kind::kInit) {
        // Init runnables execute once at t=start, outside any task.
        Rte::Binding* binding = &rte->bind(e.instance, *e.runnable);
        kernel_.schedule_at(
            kernel_.now(),
            [rte, binding] {
              rte->capture_implicit(*binding);
              rte->run_behavior(*binding);
            },
            sim::EventOrder::kSoftware);
        continue;
      }
      const InstanceDeployment& dep = deployment(e.instance);
      os::TaskConfig cfg;
      cfg.name = event_task_name(e.instance, e.runnable->name);
      cfg.priority = plan_.data_task_priority;
      cfg.budget = dep.budget;
      cfg.overrun_action = dep.overrun_action;
      cfg.max_pending_activations = 8;
      if (!dep.partition.empty()) {
        cfg.partition = c.partition_ids.at(dep.partition);
      }
      {
        sim::Duration w = e.runnable->wcet_bound;
        if (w <= 0 && e.runnable->execution_time) w = e.runnable->execution_time();
        analyzed_tasks_.push_back(
            {cfg.name, ecu_name, 0, w + inlined_wcet(e.instance, *e.runnable),
             cfg.priority});
      }
      os::Task& task = c.ecu->add_task(cfg);
      task.add_segment(make_segment(e.instance, e.runnable,
                                    &rte->bind(e.instance, *e.runnable)));
      os::Ecu* ecu = c.ecu.get();
      os::Task* task_ptr = &task;
      c.rte->on_update(
          Rte::key(e.instance, e.runnable->trigger.port,
                   e.runnable->trigger.element),
          [ecu, task_ptr] { ecu->activate(*task_ptr); });
    }
  }
}

void System::start() {
  if (started_) throw std::logic_error("System::start called twice");
  started_ = true;
  for (auto& [name, c] : ecus_) {
    c.ecu->start();
    c.com->start();
  }
  if (flexray_) flexray_->start();
  for (auto& [ecu_name, wdg] : watchdogs_) wdg->start();
}

void System::run_for(sim::Duration horizon) {
  if (!started_) start();
  kernel_.run_until(kernel_.now() + horizon);
}

SystemAnalysis System::analyze() const {
  SystemAnalysis out;
  // Per-ECU task analysis over the generated configuration.
  for (const auto& ecu_name : ecu_names_) {
    std::vector<analysis::AnalysisTask> local;
    for (const auto& t : analyzed_tasks_) {
      if (t.ecu != ecu_name) continue;
      if (t.period <= 0) {
        out.complete = false;  // event task: needs chain context (holistic)
        continue;
      }
      local.push_back({.name = t.name, .wcet = t.wcet, .period = t.period,
                       .priority = t.priority});
    }
    const auto result = analysis::analyze(local);
    if (!result.schedulable) out.schedulable = false;
    for (const auto& [name, r] : result.response) out.task_response[name] = r;
  }
  // Bus analysis of the generated PDUs.
  if (plan_.bus == BusKind::kCan) {
    std::vector<analysis::CanMessage> msgs;
    for (const auto& p : analyzed_pdus_) {
      if (p.period <= 0) {
        out.complete = false;
        continue;
      }
      msgs.push_back({.name = p.name, .id = p.frame_id, .bytes = p.bytes,
                      .period = p.period});
    }
    const auto bus = analysis::analyze_can(msgs, plan_.can.bitrate_bps);
    if (!bus.schedulable) out.schedulable = false;
    out.bus_utilization = bus.utilization;
    for (const auto& [name, r] : bus.response) out.pdu_response[name] = r;
  } else {
    // FlexRay static slots: delivery is periodic by construction; the bound
    // is one cycle + slot regardless of load.
    const auto slot = flexray::FlexRayBus::slot_length(plan_.flexray);
    const auto cycle = flexray::FlexRayBus::cycle_length(plan_.flexray);
    for (const auto& p : analyzed_pdus_) {
      out.pdu_response[p.name] = cycle + slot;
    }
    out.bus_utilization =
        cycle > 0 ? static_cast<double>(
                        static_cast<sim::Duration>(analyzed_pdus_.size()) *
                        slot) /
                        static_cast<double>(cycle)
                  : 0.0;
  }
  // End-to-end chain bounds computed at generation time — the static half
  // of the cross-check against the rv::LatencyMonitor observations.
  out.chain_bounds = chain_bounds_;
  return out;
}

os::Ecu& System::ecu(const std::string& name) { return *ctx(name).ecu; }
Rte& System::rte(const std::string& ecu_name) { return *ctx(ecu_name).rte; }
bsw::Com& System::com(const std::string& ecu_name) {
  return *ctx(ecu_name).com;
}

os::Task* System::task_of(const std::string& instance, sim::Duration period) {
  const std::string& ecu_name = deployment(instance).ecu;
  return ctx(ecu_name).ecu->find_task(periodic_task_name(instance, period));
}

}  // namespace orte::vfb
