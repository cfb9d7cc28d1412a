#include "vfb/lowering.hpp"

#include <algorithm>
#include <set>

#include "analysis/frame_packing.hpp"
#include "vfb/rte.hpp"

namespace orte::vfb {

namespace {

using ContractMap = std::map<std::string, contracts::Contract, std::less<>>;

/// Task numbering of the generated deployment: rate-monotonic priorities
/// count down from the base, at most this many periodic tasks per ECU;
/// data-received event tasks sit above them all, so deliveries propagate
/// promptly. CAN frame ids count up from the base in rate-monotonic order.
constexpr int kPeriodicBasePriority = 150;
constexpr std::size_t kMaxPeriodicTasksPerEcu = 140;
constexpr int kDataTaskPriority = 200;
constexpr std::uint32_t kCanBaseId = 0x100;

/// One model instance's resolved type and deployment (null: unresolved).
struct Inst {
  const ComponentType* type = nullptr;
  const InstanceDeployment* dep = nullptr;
};

/// The single walk behind lower().
class Lowerer {
 public:
  Lowerer(const Composition& model, const DeploymentPlan& plan)
      : model_(model), plan_(plan), contracts_(model.bound_contracts()) {}

  Lowering run() {
    std::size_t runnables = 0;
    for (const auto& inst : model_.instances()) {
      Inst& in = insts_[inst.name];
      in.type = model_.find_type(inst.type);
      const auto dep = plan_.instances.find(inst.name);
      if (dep != plan_.instances.end()) in.dep = &dep->second;
      runnables += in.type == nullptr ? 0 : in.type->runnables.size();
    }
    out_.runnables.reserve(runnables);
    out_.tasks.reserve(runnables);
    std::set<std::string> ecus;
    for (const auto& [instance, dep] : plan_.instances) ecus.insert(dep.ecu);
    out_.ecus.assign(ecus.begin(), ecus.end());

    walk_instances();
    auto& written = out_.written;
    for (const auto& io : out_.runnables) {
      written.insert(written.end(), io.writes.begin(), io.writes.end());
    }
    std::sort(written.begin(), written.end());
    written.erase(std::unique(written.begin(), written.end()), written.end());
    walk_connectors();
    pack_pdus();
    emit_tasks();
    for (const auto& [instance, contract] : contracts_) {
      if (inst(instance) == nullptr) continue;  // binds to nothing
      out_.flows[instance];  // every owner in the model has an entry
      for (const auto& g : contract.guarantees) resolve(instance, g.flow);
      for (const auto& a : contract.assumptions) resolve(instance, a.flow);
      if (contract.behaviour.has_value()) {
        for (const auto& b : contract.behaviour->bindings) {
          resolve(instance, b.flow);
        }
      }
    }
    build_inventory();
    return std::move(out_);
  }

 private:
  /// Tasks of one ECU in model order, before priorities are assigned.
  struct EcuTasks {
    std::vector<LoweredTask> periodic;
    std::map<std::pair<std::string, sim::Duration>, std::size_t> group_of;
    std::vector<LoweredTask> events;
  };
  /// Writer of one sender key: the smallest-period timing runnable, else
  /// the first data-received runnable.
  struct Writer {
    std::string instance;
    sim::Duration period = 0;  ///< 0 = no timing writer.
    std::string event_runnable;
  };

  void problem(LoweringProblem::Kind kind, std::string subject,
               std::string message) {
    out_.problems.push_back({kind, std::move(subject), std::move(message)});
  }
  const Inst* inst(std::string_view name) const {
    const auto it = insts_.find(name);
    return it == insts_.end() ? nullptr : &it->second;
  }

  /// Summed WCET of the synchronous server operations `r` declares, taken
  /// from the caller port's interface. Calls the generator cannot inline
  /// (malformed, unknown operation, unconnected, cross-ECU) are recorded.
  sim::Duration inlined_wcet(const std::string& instance,
                             const ComponentType& type, const std::string& ecu,
                             const Runnable& r) {
    sim::Duration inlined = 0;
    for (const auto& call : r.server_calls) {
      const auto gap = [&](const std::string& what) {
        problem(LoweringProblem::Kind::kServerCall, instance + "." + r.name,
                what + ": " + call + " (instance " + instance +
                    ", runnable " + r.name + ")");
      };
      const auto sep = call.find('.');
      const Port* p = sep == std::string::npos
                          ? nullptr
                          : find_port(type, call.substr(0, sep));
      const PortInterface* iface =
          p == nullptr ? nullptr : model_.find_interface(p->interface);
      const Operation* op =
          iface == nullptr ? nullptr
                           : find_operation(*iface, call.substr(sep + 1));
      if (op == nullptr) {
        gap("server call is not 'port.operation' of a known operation");
        continue;
      }
      inlined += op->wcet;
      const Connector* conn = model_.connection_to(instance, p->name);
      const Inst* server =
          conn == nullptr ? nullptr : inst(conn->from_instance);
      if (server == nullptr || server->dep == nullptr ||
          server->dep->ecu != ecu) {
        gap("server call not served on its own ECU");
      }
    }
    return inlined;
  }

  void walk_instances() {
    const bool tt = plan_.scheduling == SchedulingPolicy::kTimeTriggered;
    for (const auto& instance : model_.instances()) {
      const std::string& name = instance.name;
      const Inst& in = insts_.at(name);
      if (in.type == nullptr) {
        problem(LoweringProblem::Kind::kUnresolved, name,
                "instance " + name + " has unknown type " + instance.type);
        continue;
      }
      if (in.dep == nullptr) {
        problem(LoweringProblem::Kind::kUndeployed, name,
                "no deployment for instance " + name);
      }
      double load = 0.0;
      for (const auto& r : in.type->runnables) {
        RunnableIo io{name, &r, {}, {}, {}, {}};
        io.reads.reserve(r.accesses.size() + 1);
        io.read_accesses.reserve(r.accesses.size() + 1);
        for (const auto& acc : r.accesses) {
          std::string key = Rte::key(name, acc.port, acc.element);
          if (!is_write(acc.kind)) {
            io.reads.push_back(std::move(key));
            io.read_accesses.push_back(&acc);
            continue;
          }
          if (in.dep != nullptr) note_writer(key, name, r);
          io.writes.push_back(std::move(key));
          io.write_accesses.push_back(&acc);
        }
        const std::string trigger_key =
            Rte::key(name, r.trigger.port, r.trigger.element);
        if (r.trigger.kind == RunnableTrigger::Kind::kDataReceived) {
          io.reads.push_back(trigger_key);
          io.read_accesses.push_back(nullptr);
        }
        out_.runnables.push_back(std::move(io));
        if (in.dep == nullptr) continue;

        const std::string& ecu = in.dep->ecu;
        const LoweredRunnable lr{&r, inlined_wcet(name, *in.type, ecu, r)};
        sim::Duration wcet = r.wcet_bound;
        if (wcet <= 0 && r.execution_time) wcet = r.execution_time();
        wcet += lr.inlined;
        EcuTasks& tasks = tasks_of_[ecu];
        switch (r.trigger.kind) {
          case RunnableTrigger::Kind::kTiming: {
            const sim::Duration period = r.trigger.period;
            const auto [it, fresh] = tasks.group_of.emplace(
                std::make_pair(name, period), tasks.periodic.size());
            if (fresh) {
              tasks.periodic.push_back(
                  {.name = "tk|" + name + "|" + std::to_string(period),
                   .instance = name,
                   .ecu = ecu,
                   .period = period,
                   .table_dispatched = tt});
            }
            LoweredTask& t = tasks.periodic[it->second];
            t.wcet += wcet;
            t.runnables.push_back(lr);
            if (period > 0) {
              load += static_cast<double>(wcet) / static_cast<double>(period);
            }
            break;
          }
          case RunnableTrigger::Kind::kDataReceived:
            tasks.events.push_back({.name = "tk|" + name + "|" + r.name,
                                    .instance = name,
                                    .ecu = ecu,
                                    .priority = kDataTaskPriority,
                                    .wcet = wcet,
                                    .runnables = {lr},
                                    .trigger_key = trigger_key});
            break;
        }
      }
      if (in.dep != nullptr) out_.periodic_load[name] = load;
    }
  }

  void note_writer(const std::string& key, const std::string& instance,
                   const Runnable& r) {
    Writer& w = writers_[key];
    if (r.trigger.kind == RunnableTrigger::Kind::kTiming &&
        r.trigger.period > 0) {
      if (w.period == 0 || r.trigger.period < w.period) {
        w.instance = instance;
        w.period = r.trigger.period;
      }
    } else if (r.trigger.kind == RunnableTrigger::Kind::kDataReceived &&
               w.period == 0 && w.event_runnable.empty()) {
      w.instance = instance;
      w.event_runnable = r.name;
    }
  }

  void walk_connectors() {
    std::map<std::string, std::size_t, std::less<>> signal_of;
    for (const auto& c : model_.connectors()) {
      const Inst* from = inst(c.from_instance);
      const Inst* to = inst(c.to_instance);
      const Port* port = from == nullptr || from->type == nullptr
                             ? nullptr
                             : find_port(*from->type, c.from_port);
      const PortInterface* iface =
          port == nullptr ? nullptr : model_.find_interface(port->interface);
      const bool dst_typed = to != nullptr && to->type != nullptr;
      const std::string subject = c.from_instance + "." + c.from_port + "->" +
                                  c.to_instance + "." + c.to_port;
      if (iface == nullptr || !dst_typed ||
          find_port(*to->type, c.to_port) == nullptr) {
        problem(LoweringProblem::Kind::kUnresolved, subject,
                "connector endpoint does not resolve: " + subject);
        if (iface == nullptr) continue;
      }
      const auto to_dep = plan_.instances.find(c.to_instance);
      const bool to_planned = to_dep != plan_.instances.end();
      const std::string src_ecu = from->dep != nullptr ? from->dep->ecu : "";
      const std::string dst_ecu = to_planned ? to_dep->second.ecu : "";
      const bool deployed = from->dep != nullptr && to_planned;
      const bool cross = deployed && src_ecu != dst_ecu;
      if (iface->kind == PortInterface::Kind::kClientServer) {
        if (cross) {
          problem(LoweringProblem::Kind::kCrossEcuClientServer, subject,
                  "client-server connector spans ECUs (unsupported): " +
                      c.from_instance + " -> " + c.to_instance);
        }
        continue;
      }
      for (const auto& elem : iface->elements) {
        FlowEdge e{Rte::key(c.from_instance, c.from_port, elem.name),
                   Rte::key(c.to_instance, c.to_port, elem.name),
                   c.from_instance,
                   c.from_port,
                   c.to_instance,
                   c.to_port,
                   elem.name,
                   src_ecu,
                   dst_ecu,
                   !src_ecu.empty() && !dst_ecu.empty() && src_ecu != dst_ecu,
                   dst_typed};
        if (cross) {
          const auto [it, fresh] =
              signal_of.emplace(e.producer_key, out_.signals.size());
          if (fresh) {
            const auto w = writers_.find(e.producer_key);
            out_.signals.push_back(
                {"sg|" + e.producer_key, e.producer_key, src_ecu,
                 &elem,
                 w == writers_.end() || w->second.period == 0
                     ? sim::kForever
                     : w->second.period,
                 {}});
          }
          out_.signals[it->second].receivers.emplace_back(dst_ecu,
                                                          e.receiver_key);
        } else if (deployed) {
          out_.routes.push_back(
              {src_ecu, e.producer_key, e.receiver_key, &elem});
        }
        out_.edges.push_back(std::move(e));
      }
    }
  }

  /// Signals from the same sender ECU with the same writer period share a
  /// frame (period-grouped FFD): every frame pays header and stuffing
  /// overhead once for up to 64 payload bits. A signal that releases an
  /// event task rides alone: a received PDU notifies every signal it
  /// carries, so in a shared PDU each neighbour's write would release the
  /// task again, which V9 does not count. Per ECU and period the own PDUs
  /// come first, in signal order. Frame ids follow rate-monotonic order on
  /// CAN; FlexRay gets dedicated static slots.
  void pack_pdus() {
    std::set<std::string_view> triggers;
    for (const auto& [ecu, tasks] : tasks_of_) {
      for (const auto& t : tasks.events) triggers.insert(t.trigger_key);
    }
    struct Group {
      std::vector<std::size_t> own;
      std::vector<std::size_t> shared;
    };
    std::map<std::pair<std::string, sim::Duration>, Group> groups;
    for (std::size_t i = 0; i < out_.signals.size(); ++i) {
      const LoweredSignal& s = out_.signals[i];
      if (s.element->bit_length == 0 || s.element->bit_length > 64) {
        problem(LoweringProblem::Kind::kUnresolved, s.sender_key,
                "signal " + s.name + " does not fit a frame (" +
                    std::to_string(s.element->bit_length) + " bits)");
        continue;
      }
      const bool own = std::any_of(
          s.receivers.begin(), s.receivers.end(),
          [&](const auto& r) { return triggers.count(r.second) != 0; });
      Group& group = groups[{s.sender_ecu, s.sort_period}];
      (own ? group.own : group.shared).push_back(i);
    }
    for (const auto& [key, group] : groups) {
      const auto& [ecu, period] = key;
      const std::string prefix =
          "pdu|" + ecu + "|" +
          std::to_string(period == sim::kForever ? -1 : period) + "|";
      std::size_t n = 0;
      for (const std::size_t i : group.own) {
        out_.pdus.push_back({prefix + std::to_string(n++), ecu, period, 0,
                             (out_.signals[i].element->bit_length + 7) / 8,
                             {{i, 0}}});
      }
      std::vector<analysis::PackSignal> pack_in;
      for (const std::size_t i : group.shared) {
        // pack_signals needs a positive period and a bitrate only for its
        // (unused) utilization figure: event-produced signals (kForever)
        // get a placeholder.
        pack_in.push_back(
            {out_.signals[i].name, out_.signals[i].element->bit_length,
             period == sim::kForever ? sim::seconds(1) : period});
      }
      const auto packed = analysis::pack_signals(
          pack_in, 64, std::max<std::int64_t>(plan_.can.bitrate_bps, 1));
      for (const auto& frame : packed.frames) {
        LoweredPdu pdu{prefix + std::to_string(n++), ecu, period, 0,
                       (frame.used_bits + 7) / 8, {}};
        for (std::size_t si = 0; si < frame.signals.size(); ++si) {
          const auto it = std::find_if(
              group.shared.begin(), group.shared.end(), [&](std::size_t i) {
                return out_.signals[i].name == frame.signals[si];
              });
          pdu.signals.emplace_back(*it, frame.offsets[si]);
        }
        out_.pdus.push_back(std::move(pdu));
      }
    }
    std::sort(out_.pdus.begin(), out_.pdus.end(),
              [](const LoweredPdu& a, const LoweredPdu& b) {
                if (a.period != b.period) return a.period < b.period;
                return a.name < b.name;
              });
    for (std::size_t i = 0; i < out_.pdus.size(); ++i) {
      out_.pdus[i].frame_id =
          plan_.bus == BusKind::kCan
              ? kCanBaseId + static_cast<std::uint32_t>(i)
              : static_cast<std::uint32_t>(i + 1);  // FlexRay slot id
    }
    out_.bus = plan_.bus;
    out_.can = plan_.can;
    out_.flexray = plan_.flexray;
    out_.flexray.static_slots =
        std::max(out_.flexray.static_slots, out_.pdus.size());
    out_.flexray.static_payload_bytes = std::max(
        out_.flexray.static_payload_bytes, static_cast<std::size_t>(8));
  }

  void emit_tasks() {
    std::map<std::pair<std::string, sim::Duration>, std::size_t> periodic;
    for (const auto& ecu : out_.ecus) {
      EcuTasks& tasks = tasks_of_[ecu];
      // Rate-monotonic priorities per ECU: shorter period = higher priority.
      std::sort(tasks.periodic.begin(), tasks.periodic.end(),
                [](const LoweredTask& a, const LoweredTask& b) {
                  if (a.period != b.period) return a.period < b.period;
                  return a.instance < b.instance;
                });
      if (tasks.periodic.size() > kMaxPeriodicTasksPerEcu) {
        problem(LoweringProblem::Kind::kTooManyPeriodicTasks, ecu,
                "too many periodic tasks on ECU " + ecu + " (" +
                    std::to_string(tasks.periodic.size()) + " > " +
                    std::to_string(kMaxPeriodicTasksPerEcu) + ")");
      }
      if (plan_.scheduling == SchedulingPolicy::kTimeTriggered) {
        synthesize_table(ecu, tasks.periodic);
      }
      int priority = kPeriodicBasePriority;
      for (auto& t : tasks.periodic) {
        t.priority = priority--;
        periodic[{t.instance, t.period}] = out_.tasks.size();
        out_.tasks.push_back(std::move(t));
      }
      for (auto& t : tasks.events) {
        event_task_[{t.instance, t.runnables.front().runnable->name}] =
            out_.tasks.size();
        out_.tasks.push_back(std::move(t));
      }
    }
    for (const auto& [key, w] : writers_) {
      if (w.period > 0) {
        out_.writer_task.emplace(key, periodic.at({w.instance, w.period}));
      } else if (!w.event_runnable.empty()) {
        out_.writer_task.emplace(
            key, event_task_.at({w.instance, w.event_runnable}));
      }
    }
  }

  /// One non-preemptive dispatch table over an ECU's periodic tasks, in
  /// priority order. A non-positive period is V5's to report: no table.
  void synthesize_table(const std::string& ecu,
                        const std::vector<LoweredTask>& periodic) {
    std::vector<analysis::TtJobSpec> specs;
    for (const auto& t : periodic) {
      if (t.period <= 0) return;
      specs.push_back({.task = t.name, .period = t.period, .wcet = t.wcet});
    }
    if (specs.empty()) return;
    if (auto table = analysis::synthesize_schedule(specs)) {
      out_.tables.emplace(ecu, std::move(*table));
      return;
    }
    problem(LoweringProblem::Kind::kUnschedulableTable, ecu,
            "time-triggered schedule synthesis failed for ECU " + ecu +
                " (WCET bounds do not fit non-preemptively)");
  }

  void resolve(const std::string& instance, const std::string& flow) {
    const auto [slot, fresh] = out_.flows[instance].try_emplace(flow);
    if (!fresh) return;
    ResolvedFlow& rf = slot->second;
    const auto d = flow.find('.');
    const std::string port = flow.substr(0, d);
    const std::string element =
        d == std::string::npos ? std::string() : flow.substr(d + 1);
    const Inst* in = inst(instance);
    if (in == nullptr || in->type == nullptr) return;
    // The chain tail: the data-received runnable this flow activates.
    for (const auto& r : in->type->runnables) {
      if (r.trigger.kind == RunnableTrigger::Kind::kDataReceived &&
          r.trigger.port == port &&
          (element.empty() || r.trigger.element == element)) {
        rf.sink_runnable = r.name;
      }
    }
    const auto sink = event_task_.find({instance, rf.sink_runnable});
    if (sink != event_task_.end()) rf.sink_task = out_.tasks[sink->second].name;

    const Port* p = find_port(*in->type, port);
    const PortInterface* iface =
        p == nullptr ? nullptr : model_.find_interface(p->interface);
    if (iface == nullptr ||
        iface->kind != PortInterface::Kind::kSenderReceiver) {
      return;
    }
    const bool required = p->direction == PortDirection::kRequired;
    const Connector* conn =
        required ? model_.connection_to(instance, port) : nullptr;
    if (required && conn == nullptr) return;
    const std::string& src = required ? conn->from_instance : instance;
    const std::string& src_port = required ? conn->from_port : port;
    for (const auto& elem : iface->elements) {
      if (!element.empty() && elem.name != element) continue;
      rf.ends.push_back(
          {src, src_port, elem.name, Rte::key(src, src_port, elem.name),
           required ? Rte::key(instance, port, elem.name) : std::string()});
    }
  }

  /// The monitors vfb::System compiles, in registry order: a deadline per
  /// generated task, then per contract its arrival, range (write, deliver),
  /// latency and automaton-label monitors, and, when the plan opts in, the
  /// alive heartbeats of its periodic guarantees.
  void build_inventory() {
    using Kind = MonitorEntry::Kind;
    for (const auto& t : out_.tasks) {
      const auto cit = contracts_.find(t.instance);
      out_.monitors.push_back(
          {.kind = Kind::kDeadline,
           .contract = cit != contracts_.end() ? cit->second.name : t.name,
           .subject = t.name,
           .blame = t.instance,
           .deadline = t.period});
    }
    const auto add = [this](Kind kind, const std::string& contract,
                            const FlowEnd& end,
                            const contracts::FlowSpec* clause) {
      out_.monitors.push_back({.kind = kind,
                               .contract = contract,
                               .subject = end.key,
                               .blame = end.producer,
                               .clause = clause});
      return &out_.monitors.back();
    };
    for (const auto& [instance, contract] : contracts_) {
      const auto owner = out_.flows.find(instance);
      if (owner == out_.flows.end()) continue;
      const auto& flows = owner->second;
      for (const auto& g : contract.guarantees) {
        if (g.timing.period <= 0) continue;
        for (const auto& end : flows.at(g.flow).ends) {
          add(Kind::kArrival, contract.name, end, &g);
        }
      }
      for (const auto& g : contract.guarantees) {
        if (g.range.unbounded()) continue;
        for (const auto& end : flows.at(g.flow).ends) {
          add(Kind::kRangeWrite, contract.name, end, &g);
        }
      }
      // Assumption ranges watch what ARRIVED at this instance and blame the
      // feeding producer, never the victim consuming the value.
      for (const auto& a : contract.assumptions) {
        if (a.range.unbounded()) continue;
        for (const auto& end : flows.at(a.flow).ends) {
          if (end.receiver_key.empty()) continue;
          MonitorEntry* m = add(Kind::kRangeDeliver, contract.name, end, &a);
          m->subject = end.receiver_key;
          m->report_subject = end.key;
        }
      }
      // Latency: the feeding producer's write to this instance's consuming
      // runnable activation.
      for (const auto& a : contract.assumptions) {
        if (a.timing.latency <= 0) continue;
        const ResolvedFlow& rf = flows.at(a.flow);
        for (const auto& end : rf.ends) {
          MonitorEntry* m = add(Kind::kLatency, contract.name, end, &a);
          m->sink = instance;
          m->sink_runnable = rf.sink_runnable;
        }
      }
      if (contract.behaviour.has_value()) {
        for (const auto& b : contract.behaviour->bindings) {
          for (const auto& end : flows.at(b.flow).ends) {
            MonitorEntry* m =
                add(Kind::kAutomaton, contract.name, end, nullptr);
            m->behaviour = &*contract.behaviour;
            m->label = b.label;
          }
        }
      }
      // A periodic guarantee implies a heartbeat; supervised only on opt-in.
      for (const auto& g : contract.guarantees) {
        if (!plan_.alive_supervision || g.timing.period <= 0) continue;
        for (const auto& end : flows.at(g.flow).ends) {
          add(Kind::kAlive, contract.name, end, &g);
        }
      }
    }
  }

  const Composition& model_;
  const DeploymentPlan& plan_;
  const ContractMap& contracts_;
  Lowering out_;

  std::map<std::string_view, Inst, std::less<>> insts_;
  std::map<std::string, EcuTasks> tasks_of_;
  std::map<std::string, Writer, std::less<>> writers_;
  /// (instance, data-received runnable) -> index of its event task.
  std::map<std::pair<std::string, std::string>, std::size_t> event_task_;
};

}  // namespace

const ResolvedFlow& Lowering::flow(std::string_view instance,
                                   std::string_view flow) const {
  static const ResolvedFlow kUnresolved;
  const auto it = flows.find(instance);
  if (it == flows.end()) return kUnresolved;
  const auto fit = it->second.find(flow);
  return fit == it->second.end() ? kUnresolved : fit->second;
}

Lowering lower(const Composition& model, const DeploymentPlan& plan) {
  return Lowerer(model, plan).run();
}

std::string_view to_string(MonitorEntry::Kind kind) {
  switch (kind) {
    case MonitorEntry::Kind::kDeadline:
      return "deadline";
    case MonitorEntry::Kind::kArrival:
      return "arrival";
    case MonitorEntry::Kind::kRangeWrite:
      return "range-write";
    case MonitorEntry::Kind::kRangeDeliver:
      return "range-deliver";
    case MonitorEntry::Kind::kLatency:
      return "latency";
    case MonitorEntry::Kind::kAutomaton:
      return "automaton";
    case MonitorEntry::Kind::kAlive:
      return "alive";
  }
  return "?";
}

bool key_matches(std::string_view target, std::string_view key) {
  return key == target ||
         (key.size() > target.size() && key.starts_with(target) &&
          (key[target.size()] == '.' || key[target.size()] == '|'));
}

}  // namespace orte::vfb
