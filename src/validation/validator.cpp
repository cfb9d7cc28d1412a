#include "validation/validator.hpp"

#include "validation/detectability.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace orte::validation {

namespace {

using vfb::ComponentType;
using vfb::Composition;
using vfb::Connector;
using vfb::DataAccessKind;
using vfb::DeploymentPlan;
using vfb::InstanceDeployment;
using vfb::Port;
using vfb::PortDirection;
using vfb::PortInterface;
using vfb::Runnable;
using vfb::RunnableTrigger;

using vfb::find_element;
using vfb::find_operation;
using vfb::find_port;
using vfb::is_write;

std::string dot(std::string_view a, std::string_view b) {
  return std::string(a) + "." + std::string(b);
}
std::string dot(std::string_view a, std::string_view b, std::string_view c) {
  return dot(a, b) + "." + std::string(c);
}
std::string conn_subject(const Connector& c) {
  return dot(c.from_instance, c.from_port) + "->" +
         dot(c.to_instance, c.to_port);
}

/// One whole-model validation run; collects into `out`.
class Pass {
 public:
  Pass(const Composition& model, const DeploymentPlan& plan)
      : model_(model), plan_(plan), contracts_(model.bound_contracts()) {}

  /// Every rule over `lowering` (the deployment as the generator lowers it).
  /// `chains` is its chain analysis, read by V9.
  Diagnostics run(const vfb::Lowering& lowering, const ChainAnalysis& chains) {
    check_type_references();       // V1/V2/V5 (type level)
    check_connectors();            // V1/V2 (connector level)
    check_connectivity(lowering);  // V3
    check_call_graph();            // V1/V2/V3/V6 (server calls)
    check_deployment(lowering);    // V1/V2/V5 (plan level)
    check_races(lowering);         // V4
    check_contracts(lowering);     // V7
    // Whole-program passes (flow_analysis.cpp). V10 also judges a
    // contract-free plan.
    if (!contracts_.empty()) {
      check_flow_ranges(lowering, contracts_, out_);  // V8/V12
    }
    check_monitor_coverage(lowering, plan_, contracts_, out_);  // V10
    if (!contracts_.empty()) {
      check_chain_deadlines(chains, out_);                        // V9
      check_resource_budgets(lowering, plan_, contracts_, out_);  // V11
      check_detectability(lowering, plan_, contracts_, out_);     // V13-V15
    }
    return std::move(out_);
  }

 private:
  // --- V1/V2/V5: every name a type mentions must resolve; accesses and
  // triggers must agree with port kind and direction; elements must fit a
  // COM signal; timing must be sane.
  void check_type_references() {
    for (const auto& [iname, iface] : model_.interfaces()) {
      for (const auto& e : iface.elements) {
        if (e.bit_length >= 1 && e.bit_length <= 64) continue;
        out_.add("V2", Severity::kError, dot(iname, e.name),
                 "element " + e.name + " is " + std::to_string(e.bit_length) +
                     " bits wide; a COM signal carries 1..64 bits",
                 "set DataElement::bit_length within 1..64");
      }
    }
    for (const auto& [tname, type] : model_.types()) {
      for (const auto& p : type.ports) {
        if (model_.find_interface(p.interface) == nullptr) {
          out_.add("V1", Severity::kError, dot(tname, p.name),
                   "port references unknown interface " + p.interface,
                   "add_interface(\"" + p.interface + "\") before the type");
        }
      }
      for (const auto& r : type.runnables) {
        check_runnable(tname, type, r);
      }
    }
    for (const auto& inst : model_.instances()) {
      if (model_.find_type(inst.type) == nullptr) {
        out_.add("V1", Severity::kError, inst.name,
                 "instance references unknown component type " + inst.type,
                 "add_type(\"" + inst.type + "\") before the instance");
      }
    }
  }

  void check_runnable(const std::string& tname, const ComponentType& type,
                      const Runnable& r) {
    for (const auto& acc : r.accesses) {
      const std::string subject = dot(tname, r.name, acc.port);
      const Port* p = find_port(type, acc.port);
      if (p == nullptr) {
        out_.add("V1", Severity::kError, subject,
                 "data access on unknown port " + acc.port);
        continue;
      }
      const PortInterface* iface = model_.find_interface(p->interface);
      if (iface == nullptr) continue;  // flagged at the port already
      if (iface->kind != PortInterface::Kind::kSenderReceiver) {
        out_.add("V2", Severity::kError, subject,
                 "data access on non-SR port " + acc.port,
                 "use server_calls for client-server ports");
        continue;
      }
      if (find_element(*iface, acc.element) == nullptr) {
        out_.add("V1", Severity::kError, subject + "." + acc.element,
                 "interface " + iface->name + " has no element " + acc.element);
      }
      if (is_write(acc.kind) && p->direction != PortDirection::kProvided) {
        out_.add("V2", Severity::kError, subject,
                 "runnable " + r.name + " writes required port " + acc.port,
                 "writes go through provided ports");
      }
      if (!is_write(acc.kind) && p->direction != PortDirection::kRequired) {
        out_.add("V2", Severity::kError, subject,
                 "runnable " + r.name + " reads provided port " + acc.port,
                 "reads go through required ports");
      }
    }
    switch (r.trigger.kind) {
      case RunnableTrigger::Kind::kTiming:
        if (r.trigger.period <= 0) {
          out_.add("V5", Severity::kError, dot(tname, r.name),
                   "timing runnable " + r.name + " has no period",
                   "set trigger = RunnableTrigger::timing(period)");
        } else if (r.wcet_bound > 0 && r.wcet_bound >= r.trigger.period) {
          out_.add("V5", Severity::kWarning, dot(tname, r.name),
                   "declared wcet_bound >= trigger period: the task can never "
                   "complete within its activation window");
        }
        break;
      case RunnableTrigger::Kind::kDataReceived: {
        const Port* p = find_port(type, r.trigger.port);
        if (p == nullptr) {
          out_.add("V1", Severity::kError, dot(tname, r.name, r.trigger.port),
                   "data-received trigger on unknown port " + r.trigger.port);
          break;
        }
        const PortInterface* iface = model_.find_interface(p->interface);
        if (iface != nullptr &&
            find_element(*iface, r.trigger.element) == nullptr) {
          out_.add("V1", Severity::kError,
                   dot(tname, r.name, r.trigger.port) + "." + r.trigger.element,
                   "data-received trigger on unknown element " +
                       r.trigger.element);
        }
        if (p->direction != PortDirection::kRequired) {
          out_.add("V5", Severity::kError, dot(tname, r.name, r.trigger.port),
                   "data-received trigger on provided port " + r.trigger.port,
                   "data-received events fire on required ports only");
        }
        break;
      }
    }
  }

  // --- V1/V2: connector endpoints resolve; direction, interface kind and
  // element sets agree; a required port is fed at most once.
  void check_connectors() {
    std::map<std::pair<std::string, std::string>, int> feeds;
    for (const auto& c : model_.connectors()) {
      const Port* from = resolve_connector_end(c, c.from_instance, c.from_port);
      const Port* to = resolve_connector_end(c, c.to_instance, c.to_port);
      if (to != nullptr) ++feeds[{c.to_instance, c.to_port}];
      if (from == nullptr || to == nullptr) continue;
      if (from->direction != PortDirection::kProvided) {
        out_.add("V2", Severity::kError, conn_subject(c),
                 "connector source " + c.from_port + " is not a provided port",
                 "swap the connector endpoints");
      }
      if (to->direction != PortDirection::kRequired) {
        out_.add("V2", Severity::kError, conn_subject(c),
                 "connector target " + c.to_port + " is not a required port",
                 "swap the connector endpoints");
      }
      if (from->interface != to->interface) {
        out_.add("V2", Severity::kError, conn_subject(c),
                 "connector interface mismatch: " + from->interface + " vs " +
                     to->interface + interface_mismatch_detail(from, to),
                 "connected ports must share one interface definition");
      }
    }
    for (const auto& [key, n] : feeds) {
      if (n > 1) {
        out_.add("V2", Severity::kError, dot(key.first, key.second),
                 "required port " + dot(key.first, key.second) +
                     " fed by multiple connectors",
                 "a required port accepts exactly one feeding connector");
      }
    }
  }

  /// When two differently-named interfaces collide on a connector, say how
  /// far apart they actually are (kind / element set / structurally equal).
  std::string interface_mismatch_detail(const Port* from, const Port* to) {
    const PortInterface* fi = model_.find_interface(from->interface);
    const PortInterface* ti = model_.find_interface(to->interface);
    if (fi == nullptr || ti == nullptr) return {};
    if (fi->kind != ti->kind) {
      return " (kind mismatch: sender-receiver vs client-server)";
    }
    std::vector<std::string> only_from;
    std::vector<std::string> only_to;
    for (const auto& e : fi->elements) {
      if (find_element(*ti, e.name) == nullptr) only_from.push_back(e.name);
    }
    for (const auto& e : ti->elements) {
      if (find_element(*fi, e.name) == nullptr) only_to.push_back(e.name);
    }
    if (only_from.empty() && only_to.empty()) {
      return " (element sets agree; the interfaces differ in name only)";
    }
    std::string detail = " (element-set disagreement:";
    for (const auto& e : only_from) detail += " -" + e;
    for (const auto& e : only_to) detail += " +" + e;
    return detail + ")";
  }

  const Port* resolve_connector_end(const Connector& c,
                                    const std::string& instance,
                                    const std::string& port) {
    const auto* inst = model_.find_instance(instance);
    if (inst == nullptr) {
      out_.add("V1", Severity::kError, conn_subject(c),
               "connector references unknown instance " + instance);
      return nullptr;
    }
    const ComponentType* type = model_.find_type(inst->type);
    if (type == nullptr) return nullptr;  // instance already flagged
    const Port* p = find_port(*type, port);
    if (p == nullptr) {
      out_.add("V1", Severity::kError, conn_subject(c),
               "instance " + instance + " has no port " + port);
    }
    return p;
  }

  // --- V3: required ports that are read but never fed; elements carried by
  // a connector that no runnable ever writes or reads.
  void check_connectivity(const vfb::Lowering& lowering) {
    std::set<std::pair<std::string, std::string>> sources;  // connected ends
    for (const auto& c : model_.connectors()) {
      sources.emplace(c.from_instance, c.from_port);
    }
    for (const auto& inst : model_.instances()) {
      const ComponentType* type = model_.find_type(inst.type);
      if (type == nullptr) continue;
      for (const auto& p : type->ports) {
        const PortInterface* iface = model_.find_interface(p.interface);
        if (iface == nullptr ||
            iface->kind != PortInterface::Kind::kSenderReceiver) {
          continue;
        }
        if (p.direction == PortDirection::kRequired &&
            model_.connection_to(inst.name, p.name) == nullptr) {
          if (port_is_read(*type, p.name)) {
            out_.add("V3", Severity::kWarning, dot(inst.name, p.name),
                     "required port is read but has no feeding connector: "
                     "reads only ever see the init value",
                     "add_connector({provider, port, \"" + inst.name +
                         "\", \"" + p.name + "\"})");
          } else {
            out_.add("V3", Severity::kInfo, dot(inst.name, p.name),
                     "required port is not connected");
          }
        }
        if (p.direction == PortDirection::kProvided &&
            sources.count({inst.name, p.name}) == 0 &&
            port_is_written(*type, p.name)) {
          out_.add("V3", Severity::kInfo, dot(inst.name, p.name),
                   "writes to unconnected provided port reach no receiver");
        }
      }
    }
    // Connector elements no runnable of the instances on either end writes
    // or reads (the lowered slot dataflow).
    std::set<std::string> read;
    for (const auto& io : lowering.runnables) {
      read.insert(io.reads.begin(), io.reads.end());
    }
    for (const auto& e : lowering.edges) {
      if (!e.dst_typed) continue;
      if (!std::binary_search(lowering.written.begin(), lowering.written.end(),
                              e.producer_key)) {
        out_.add("V3", Severity::kInfo, e.producer_key,
                 "element is never written by any runnable of " +
                     model_.find_instance(e.src_instance)->type +
                     "; receivers only ever see init");
      }
      if (read.count(e.receiver_key) == 0) {
        out_.add("V3", Severity::kInfo, e.receiver_key,
                 "element is delivered but never read by any runnable of " +
                     model_.find_instance(e.dst_instance)->type);
      }
    }
  }

  static bool port_is_read(const ComponentType& type, std::string_view port) {
    for (const auto& r : type.runnables) {
      if (r.trigger.kind == RunnableTrigger::Kind::kDataReceived &&
          r.trigger.port == port) {
        return true;
      }
      for (const auto& acc : r.accesses) {
        if (!is_write(acc.kind) && acc.port == port) return true;
      }
    }
    return false;
  }
  static bool port_is_written(const ComponentType& type,
                              std::string_view port) {
    for (const auto& r : type.runnables) {
      for (const auto& acc : r.accesses) {
        if (is_write(acc.kind) && acc.port == port) return true;
      }
    }
    return false;
  }
  // --- V1/V2/V3/V6: server calls resolve end to end (format, port, kind,
  // connector, operation, registered handler) and the instance-level call
  // graph is acyclic.
  void check_call_graph() {
    // instance -> (server instance, call label) edges.
    std::map<std::string, std::vector<std::pair<std::string, std::string>>>
        edges;
    for (const auto& inst : model_.instances()) {
      const ComponentType* type = model_.find_type(inst.type);
      if (type == nullptr) continue;
      for (const auto& r : type->runnables) {
        for (const auto& call : r.server_calls) {
          check_server_call(inst.name, *type, r, call, edges);
        }
      }
    }
    detect_cycles(edges);
  }

  void check_server_call(
      const std::string& instance, const ComponentType& type,
      const Runnable& r, const std::string& call,
      std::map<std::string,
               std::vector<std::pair<std::string, std::string>>>& edges) {
    const std::string subject = dot(instance, r.name);
    const auto sep = call.find('.');
    if (sep == std::string::npos) {
      out_.add("V1", Severity::kError, subject,
               "server call must be 'port.operation': " + call);
      return;
    }
    const std::string port = call.substr(0, sep);
    const std::string op = call.substr(sep + 1);
    const Port* p = find_port(type, port);
    if (p == nullptr) {
      out_.add("V1", Severity::kError, subject,
               "server call on unknown port " + port + ": " + call);
      return;
    }
    const PortInterface* iface = model_.find_interface(p->interface);
    if (iface == nullptr) return;  // dangling interface flagged already
    if (iface->kind != PortInterface::Kind::kClientServer ||
        p->direction != PortDirection::kRequired) {
      out_.add("V2", Severity::kError, subject,
               "server call through a port that is not a required "
               "client-server port: " +
                   call);
      return;
    }
    if (find_operation(*iface, op) == nullptr) {
      out_.add("V1", Severity::kError, subject,
               "unknown operation in server call: " + call);
      return;
    }
    const Connector* conn = model_.connection_to(instance, port);
    if (conn == nullptr) {
      out_.add("V3", Severity::kError, subject,
               "server call on unconnected port " + dot(instance, port),
               "connect the port to a providing server instance");
      return;
    }
    edges[instance].emplace_back(conn->from_instance, call);
    const auto* server_inst = model_.find_instance(conn->from_instance);
    if (server_inst != nullptr &&
        model_.operation_handler(server_inst->type, conn->from_port, op) ==
            nullptr) {
      out_.add("V1", Severity::kError, subject,
               "no handler registered for operation " + op + " on type " +
                   server_inst->type,
               "set_operation_handler(\"" + server_inst->type + "\", \"" +
                   conn->from_port + "\", \"" + op + "\", ...)");
    }
  }

  void detect_cycles(
      const std::map<std::string,
                     std::vector<std::pair<std::string, std::string>>>&
          edges) {
    enum class Color { kWhite, kGrey, kBlack };
    std::map<std::string, Color> color;
    std::vector<std::string> path;
    auto dfs = [&](auto&& self, const std::string& node) -> void {
      color[node] = Color::kGrey;
      path.push_back(node);
      auto it = edges.find(node);
      if (it != edges.end()) {
        for (const auto& [server, call] : it->second) {
          const auto cit = color.find(server);
          const Color c = cit == color.end() ? Color::kWhite : cit->second;
          if (c == Color::kGrey) {
            std::string cycle;
            auto start = std::find(path.begin(), path.end(), server);
            for (auto p = start; p != path.end(); ++p) cycle += *p + " -> ";
            cycle += server;
            out_.add("V6", Severity::kError, server,
                     "client-server call cycle: " + cycle,
                     "synchronous call cycles deadlock; break the cycle or "
                     "invert one dependency");
          } else if (c == Color::kWhite) {
            self(self, server);
          }
        }
      }
      path.pop_back();
      color[node] = Color::kBlack;
    };
    for (const auto& [node, _] : edges) {
      const auto cit = color.find(node);
      if (cit == color.end() || cit->second == Color::kWhite) dfs(dfs, node);
    }
  }

  // --- V1/V2/V5 (plan level): every instance deployed, client-server
  // connectors stay on one ECU, budgets and the bus are ones the runtime
  // can take.
  void check_deployment(const vfb::Lowering& lowering) {
    for (const auto& inst : model_.instances()) {
      const auto it = plan_.instances.find(inst.name);
      if (it == plan_.instances.end()) {
        out_.add("V1", Severity::kError, inst.name,
                 "no deployment for instance " + inst.name,
                 "plan.instances[\"" + inst.name + "\"] = {.ecu = ...}");
        continue;
      }
      check_budget(inst.name, it->second);
    }
    for (const auto& [name, dep] : plan_.instances) {
      if (model_.find_instance(name) == nullptr) {
        out_.add("V1", Severity::kWarning, name,
                 "deployment for unknown instance " + name);
      }
    }
    for (const auto& p : lowering.problems) {
      if (p.kind == vfb::LoweringProblem::Kind::kCrossEcuClientServer) {
        out_.add("V2", Severity::kError, p.subject, p.message,
                 "deploy client and server on one ECU");
      }
    }
    // vfb::System builds the plan's bus whether or not a signal crosses it.
    const bool can = plan_.bus == vfb::BusKind::kCan;
    const std::int64_t bitrate =
        can ? plan_.can.bitrate_bps : plan_.flexray.bitrate_bps;
    if (bitrate <= 0) {
      out_.add("V5", Severity::kError, "bus",
               "bus bitrate " + std::to_string(bitrate) +
                   " bps is not positive",
               can ? "set plan.can.bitrate_bps"
                   : "set plan.flexray.bitrate_bps");
    }
    if (can) return;
    const auto& fr = plan_.flexray;
    if (fr.static_slots == 0) {
      out_.add("V5", Severity::kError, "bus",
               "a FlexRay cycle needs at least one static slot",
               "set plan.flexray.static_slots");
    }
    if (fr.minislot_len <= 0) {
      out_.add("V5", Severity::kError, "bus",
               "FlexRay minislot length " + std::to_string(fr.minislot_len) +
                   " ns is not positive",
               "set plan.flexray.minislot_len");
    }
    if (fr.network_idle < 0) {
      out_.add("V5", Severity::kError, "bus",
               "FlexRay network idle time " +
                   std::to_string(fr.network_idle) + " ns is negative",
               "set plan.flexray.network_idle");
    }
  }

  void check_budget(const std::string& instance,
                    const InstanceDeployment& dep) {
    if (dep.budget < 0) {
      out_.add("V5", Severity::kError, instance,
               "execution budget " + std::to_string(dep.budget) +
                   " ns is negative",
               "use a positive budget, or 0 for none");
      return;
    }
    if (dep.budget == 0) return;
    const auto* inst = model_.find_instance(instance);
    if (inst == nullptr) return;
    const ComponentType* type = model_.find_type(inst->type);
    if (type == nullptr) return;
    for (const auto& r : type->runnables) {
      if (r.wcet_bound > 0 && r.wcet_bound > dep.budget) {
        out_.add("V5", Severity::kWarning, dot(instance, r.name),
                 "execution budget is below the runnable's declared WCET "
                 "bound: every job overruns",
                 "raise the budget or split the runnable");
      }
    }
  }

  /// One runnable of a deployed instance with its generated task.
  struct Footprint {
    const vfb::RunnableIo* io;
    const vfb::LoweredTask* task;
  };

  // --- V4: cross-task data races over the lowered tasks: one per (instance,
  // period) with rate-monotonic priorities per ECU, one event task per
  // data-received runnable above every periodic task. Explicit accesses
  // touch live RTE slots, so a preempting writer tears a lower-priority
  // reader (torn read) and two writers in different tasks lose updates;
  // implicit accesses are buffered at task boundaries and pass by
  // construction.
  void check_races(const vfb::Lowering& lowering) {
    for (const auto& p : lowering.problems) {
      if (p.kind == vfb::LoweringProblem::Kind::kTooManyPeriodicTasks) {
        out_.add("V5", Severity::kError, p.subject, p.message,
                 "merge runnable periods or split the deployment");
      } else if (p.kind == vfb::LoweringProblem::Kind::kUnschedulableTable) {
        out_.add("V5", Severity::kError, p.subject, p.message,
                 "lower the WCET bounds, lengthen the periods or split the "
                 "deployment");
      }
    }
    // Each runnable's footprint and generated task, grouped by instance in
    // model order; runnables of undeployed instances have no task.
    std::map<std::pair<std::string, std::string>, const vfb::LoweredTask*>
        task_of;
    for (const auto& t : lowering.tasks) {
      for (const auto& lr : t.runnables) {
        task_of[{t.instance, lr.runnable->name}] = &t;
      }
    }
    std::vector<std::string> order;
    std::map<std::string, std::vector<Footprint>, std::less<>> footprints;
    for (const auto& io : lowering.runnables) {
      const auto it = task_of.find({io.instance, io.runnable->name});
      if (it == task_of.end()) continue;
      if (footprints[io.instance].empty()) order.push_back(io.instance);
      footprints[io.instance].push_back({&io, it->second});
    }
    const auto explicit_accesses = [&footprints](const std::string& instance,
                                                 const std::string& key,
                                                 bool write) {
      std::vector<Footprint> out;
      const auto it = footprints.find(instance);
      if (it == footprints.end()) return out;
      for (const auto& f : it->second) {
        const auto& keys = write ? f.io->writes : f.io->reads;
        const auto& accs = write ? f.io->write_accesses : f.io->read_accesses;
        for (std::size_t i = 0; i < keys.size(); ++i) {
          if (keys[i] == key && accs[i] != nullptr &&
              accs[i]->kind == (write ? DataAccessKind::kExplicitWrite
                                      : DataAccessKind::kExplicitRead)) {
            out.push_back(f);
          }
        }
      }
      return out;
    };

    // Torn reads across same-ECU connector elements.
    for (const auto& e : lowering.edges) {
      if (e.src_ecu.empty() || e.src_ecu != e.dst_ecu || !e.dst_typed) {
        continue;  // cross-ECU: decoupled by the bus, no shared slot
      }
      const auto writers = explicit_accesses(e.src_instance, e.producer_key,
                                             /*write=*/true);
      const auto readers = explicit_accesses(e.dst_instance, e.receiver_key,
                                             /*write=*/false);
      for (const auto& w : writers) {
        for (const auto& rd : readers) {
          if (!can_preempt_pair(*w.task, *rd.task)) continue;
          emit_race("torn-read", e.receiver_key,
                    dot(e.dst_instance, rd.io->runnable->name) +
                        " explicit read of " + e.receiver_key,
                    *rd.task,
                    dot(e.src_instance, w.io->runnable->name) +
                        " explicit write of " + e.producer_key,
                    *w.task);
        }
      }
    }

    // Lost updates inside one instance: two explicit writers of the same
    // (port, element) mapped to different tasks.
    for (const auto& instance : order) {
      std::map<std::pair<std::string, std::string>, std::vector<Footprint>>
          writers;
      for (const auto& f : footprints.at(instance)) {
        for (const auto* acc : f.io->write_accesses) {
          if (acc->kind == DataAccessKind::kExplicitWrite) {
            writers[{acc->port, acc->element}].push_back(f);
          }
        }
      }
      for (const auto& [key, ws] : writers) {
        const std::string slot = dot(instance, key.first, key.second);
        for (std::size_t i = 0; i < ws.size(); ++i) {
          for (std::size_t j = i + 1; j < ws.size(); ++j) {
            if (!can_preempt_pair(*ws[i].task, *ws[j].task)) continue;
            emit_race("lost-update", slot,
                      dot(instance, ws[i].io->runnable->name) +
                          " explicit write of " + slot,
                      *ws[i].task,
                      dot(instance, ws[j].io->runnable->name) +
                          " explicit write of " + slot,
                      *ws[j].task);
          }
        }
      }
    }
  }

  /// Can `a` and `b` interleave mid-execution? Distinct tasks at distinct
  /// priorities under preemptive dispatch; TT table entries are
  /// non-preemptive among themselves but event tasks still preempt them.
  static bool can_preempt_pair(const vfb::LoweredTask& a,
                               const vfb::LoweredTask& b) {
    if (a.name == b.name) return false;          // same task: serialized
    if (a.priority == b.priority) return false;  // FIFO peers never preempt
    if (a.table_dispatched && b.table_dispatched) return false;  // TT slots
    return true;
  }

  void emit_race(const char* kind, const std::string& subject,
                 const std::string& victim_access,
                 const vfb::LoweredTask& victim,
                 const std::string& aggressor_access,
                 const vfb::LoweredTask& aggressor) {
    const vfb::LoweredTask& hi =
        aggressor.priority > victim.priority ? aggressor : victim;
    const vfb::LoweredTask& lo =
        aggressor.priority > victim.priority ? victim : aggressor;
    out_.add("V4", Severity::kWarning, subject,
             std::string(kind) + " hazard: " + victim_access +
                 " races with " + aggressor_access + "; task " + hi.name +
                 " (prio " + std::to_string(hi.priority) + ") preempts task " +
                 lo.name + " (prio " + std::to_string(lo.priority) + ")",
             "declare the accesses implicit (buffered) or map both runnables "
             "into one task");
  }

  // --- V7: bound rich-component contracts must be compatible across every
  // connector (source guarantee implies sink assumption), the same predicate
  // contracts::ContractNetwork::check_compatibility applies per connection.
  void check_contracts(const vfb::Lowering& lowering) {
    for (const auto& [instance, _] : contracts_) {
      if (model_.find_instance(instance) == nullptr) {
        out_.add("V1", Severity::kWarning, instance,
                 "contract bound to unknown instance " + instance);
      }
    }
    for (const auto& e : lowering.edges) {
      const auto from_it = contracts_.find(e.src_instance);
      const auto to_it = contracts_.find(e.dst_instance);
      if (from_it == contracts_.end() || to_it == contracts_.end()) continue;
      const contracts::FlowSpec* g = from_it->second.flow_spec(
          e.src_port, e.element, /*assumption=*/false);
      const contracts::FlowSpec* a = to_it->second.flow_spec(
          e.dst_port, e.element, /*assumption=*/true);
      if (g == nullptr || a == nullptr) continue;
      for (const auto& violation : contracts::satisfies(*g, *a).violations) {
        out_.add("V7", Severity::kError,
                 dot(e.src_instance, e.src_port) + "->" +
                     dot(e.dst_instance, e.dst_port, e.element),
                 "contract incompatibility (" + from_it->second.name +
                     " -> " + to_it->second.name + "): " + violation,
                 "weaken the sink assumption or strengthen the source "
                 "guarantee");
      }
    }
  }

  const Composition& model_;
  const DeploymentPlan& plan_;
  const std::map<std::string, contracts::Contract, std::less<>>& contracts_;
  Diagnostics out_;
};

}  // namespace

Diagnostics validate(const vfb::Composition& model,
                     const vfb::DeploymentPlan& plan) {
  const vfb::Lowering lowering = vfb::lower(model, plan);
  return validate_lowering(model, plan, lowering,
                           analyze_chains(lowering, model.bound_contracts()));
}

Diagnostics validate_lowering(const vfb::Composition& model,
                              const vfb::DeploymentPlan& plan,
                              const vfb::Lowering& lowering,
                              const ChainAnalysis& chains) {
  return Pass(model, plan).run(lowering, chains);
}

}  // namespace orte::validation
