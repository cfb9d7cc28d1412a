#include "validation/flow_analysis.hpp"

#include <algorithm>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/holistic.hpp"
#include "can/can_bus.hpp"
#include "flexray/flexray_bus.hpp"

namespace orte::validation {

namespace {

using contracts::Contract;
using contracts::FlowSpec;
using contracts::Interval;
using sim::Duration;

using ContractMap = std::map<std::string, Contract, std::less<>>;

std::string dot(std::string_view a, std::string_view b) {
  return std::string(a) + "." + std::string(b);
}

std::string interval_str(const Interval& r) {
  return "[" + std::to_string(r.lo) + ", " + std::to_string(r.hi) + "]";
}

// ---------------------------------------------------------------------------
// V8 / V12: slot dataflow graph with abstract interval propagation.
// ---------------------------------------------------------------------------

/// Abstract value of one slot: Bottom (no dynamic data ever reaches it),
/// an interval hull, or Top (reached by an unconstrained source).
struct AbsVal {
  enum class Kind { kBottom, kInterval, kTop };
  Kind kind = Kind::kBottom;
  Interval iv{0, 0};
  std::string origin;  ///< Human-readable provenance for messages.

  static AbsVal bottom() { return {}; }
  static AbsVal top(std::string origin) {
    return {Kind::kTop, {0, 0}, std::move(origin)};
  }
  static AbsVal interval(Interval iv, std::string origin) {
    return {Kind::kInterval, iv, std::move(origin)};
  }

  bool operator==(const AbsVal& o) const {
    return kind == o.kind && (kind != Kind::kInterval || iv == o.iv);
  }
};

AbsVal join(const AbsVal& a, const AbsVal& b) {
  using K = AbsVal::Kind;
  if (a.kind == K::kBottom) return b;
  if (b.kind == K::kBottom) return a;
  if (a.kind == K::kTop) return a;
  if (b.kind == K::kTop) return b;
  AbsVal out = a;
  out.iv.lo = std::min(a.iv.lo, b.iv.lo);
  out.iv.hi = std::max(a.iv.hi, b.iv.hi);
  return out;
}

/// Interval fixpoint over the graph. Monotone in the (Bottom < intervals <
/// Top) lattice with hull joins over the finite set of guarantee endpoints,
/// so it converges.
std::map<std::string, AbsVal> propagate_ranges(const vfb::Lowering& g,
                                               const ContractMap& contracts) {
  std::map<std::string, AbsVal> val;
  const auto get = [&](const std::string& key) -> AbsVal {
    const auto it = val.find(key);
    return it == val.end() ? AbsVal::bottom() : it->second;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    const auto raise = [&](const std::string& key, const AbsVal& v) {
      AbsVal next = join(get(key), v);
      if (!(next == get(key))) {
        val[key] = std::move(next);
        changed = true;
      }
    };
    for (const auto& rf : g.runnables) {
      const auto cit = contracts.find(rf.instance);
      for (std::size_t i = 0; i < rf.writes.size(); ++i) {
        // A direct guarantee on the written flow is authoritative (the
        // component promises the range regardless of what it reads — V7
        // checks the adjacent links); otherwise the write relays the hull
        // of everything the runnable reads, and a read-free writer is an
        // unconstrained source.
        const FlowSpec* guarantee =
            cit == contracts.end()
                ? nullptr
                : cit->second.flow_spec(rf.write_accesses[i]->port,
                                        rf.write_accesses[i]->element,
                                        /*assumption=*/false);
        if (guarantee != nullptr && !guarantee->range.unbounded()) {
          raise(rf.writes[i],
                AbsVal::interval(guarantee->range,
                                 "guarantee " + cit->second.name + "." +
                                     guarantee->flow));
          continue;
        }
        if (rf.reads.empty()) {
          raise(rf.writes[i],
                AbsVal::top("unconstrained writer " +
                            dot(rf.instance, rf.runnable->name)));
          continue;
        }
        AbsVal relay = AbsVal::bottom();
        for (const auto& read : rf.reads) relay = join(relay, get(read));
        if (relay.kind != AbsVal::Kind::kBottom) raise(rf.writes[i], relay);
      }
    }
    for (const auto& e : g.edges) raise(e.receiver_key, get(e.producer_key));
  }
  return val;
}

}  // namespace

std::unordered_set<std::string_view> reach(
    const vfb::Lowering& lowering, const std::vector<std::string_view>& seeds,
    bool forward) {
  std::unordered_set<std::string_view> reached(seeds.begin(), seeds.end());
  const auto any_reached = [&reached](const std::vector<std::string>& keys) {
    return std::any_of(keys.begin(), keys.end(), [&](const std::string& k) {
      return reached.count(k) != 0;
    });
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& rf : lowering.runnables) {
      if (!any_reached(forward ? rf.reads : rf.writes)) continue;
      for (const auto& k : forward ? rf.writes : rf.reads) {
        changed = reached.insert(k).second || changed;
      }
    }
    for (const auto& e : lowering.edges) {
      if (reached.count(forward ? e.producer_key : e.receiver_key) != 0) {
        changed =
            reached.insert(forward ? e.receiver_key : e.producer_key).second ||
            changed;
      }
    }
  }
  return reached;
}

ChainAnalysis analyze_chains(const vfb::Lowering& lowering,
                             const ContractMap& contracts) {
  // A bus without a positive bitrate cannot be timed (and V5 rejects it).
  const bool can = lowering.bus == vfb::BusKind::kCan;
  if ((can ? lowering.can.bitrate_bps : lowering.flexray.bitrate_bps) <= 0) {
    return {};
  }
  using Source = analysis::DistTask::Source;
  // Analysis task i is lowering.tasks[i]; the event tasks are listed by the
  // receiver slot that releases them.
  std::vector<analysis::DistTask> tasks;
  tasks.reserve(lowering.tasks.size());
  std::map<std::string_view, std::vector<std::size_t>, std::less<>> consumers;
  for (const auto& t : lowering.tasks) {
    if (!t.periodic()) consumers[t.trigger_key].push_back(tasks.size());
    const auto ecu =
        std::lower_bound(lowering.ecus.begin(), lowering.ecus.end(), t.ecu);
    tasks.push_back(
        {.name = t.name,
         .ecu = static_cast<std::size_t>(ecu - lowering.ecus.begin()),
         .wcet = t.wcet,
         .period = t.period,
         .priority = t.priority});
  }
  // Every consumer of `key` is released from `from`. A second source only
  // comes from a required port fed twice, V2's error: its activations would
  // superpose, so such a task keeps no source and its chain stays unbounded.
  std::vector<int> sources(tasks.size(), 0);
  const auto release = [&](std::string_view key, Source source,
                           std::size_t from) {
    const auto it = consumers.find(key);
    if (it == consumers.end()) return;
    for (const std::size_t i : it->second) {
      tasks[i].source = ++sources[i] == 1 ? source : Source::kNone;
      tasks[i].from = from;
    }
  };
  // Same-ECU activation: the writer's task releases the consumer directly.
  for (const auto& e : lowering.edges) {
    if (e.src_ecu.empty() || e.src_ecu != e.dst_ecu) continue;
    const auto writer = lowering.writer_task.find(e.producer_key);
    if (writer == lowering.writer_task.end()) continue;
    release(e.receiver_key, Source::kTask, writer->second);
  }
  // Cross-ECU: message j is the j-th written signal in PDU order, named by
  // its sender key. Each write sends the signal's whole PDU, whose frame
  // releases the consumers of each of the signal's receiver keys; a signal
  // nothing event-consumes still loads the bus.
  std::vector<analysis::DistMessage> messages;
  std::vector<const vfb::LoweredPdu*> pdu_of;  ///< Per message.
  std::map<std::string_view, std::size_t, std::less<>> message_of;
  for (const auto& pdu : lowering.pdus) {
    for (const auto& [index, offset] : pdu.signals) {
      const vfb::LoweredSignal& s = lowering.signals[index];
      const auto writer = lowering.writer_task.find(s.sender_key);
      if (writer == lowering.writer_task.end()) continue;  // never written (V3)
      for (const auto& [ecu, key] : s.receivers) {
        release(key, Source::kMessage, messages.size());
      }
      message_of.emplace(s.sender_key, messages.size());
      pdu_of.push_back(&pdu);
      messages.push_back({.name = s.sender_key,
                          .id = pdu.frame_id,
                          .bytes = pdu.bytes,
                          .from_task = writer->second});
    }
  }

  analysis::BusSpec bus;
  if (can) {
    bus.can_bitrate_bps = lowering.can.bitrate_bps;
  } else {
    bus.use_flexray = true;
    bus.flexray = lowering.flexray;
  }
  const analysis::HolisticResult result =
      analysis::analyze_holistic(tasks, messages, bus);
  ChainAnalysis out;
  out.schedulable = result.schedulable;
  out.complete = std::all_of(result.period.begin(), result.period.end(),
                             [](Duration p) { return p > 0; });
  out.iterations = result.iterations;
  if (result.schedulable) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (result.period[i] > 0) {
        out.task_response.emplace(tasks[i].name, result.task_response[i]);
      }
    }
  }

  // Per PDU and on CAN per frame: each signal write sends the whole PDU.
  for (std::size_t j = 0; j < messages.size(); ++j) {
    const std::size_t writer = messages[j].from_task;
    const Duration period = result.period[writer];
    if (period <= 0) continue;
    if (can) {
      out.bus_utilization +=
          static_cast<double>(can::frame_transmission_time(
              messages[j].bytes, lowering.can.bitrate_bps)) /
          static_cast<double>(period);
    }
    if (!result.schedulable) continue;
    // The frame inherits its writer's response as queueing jitter.
    Duration& worst = out.pdu_response[pdu_of[j]->name];
    worst = std::max(worst, result.message_response[j] -
                                result.task_response[writer]);
  }
  if (!can) {
    const Duration slot = flexray::FlexRayBus::slot_length(lowering.flexray);
    const Duration cycle = flexray::FlexRayBus::cycle_length(lowering.flexray);
    out.bus_utilization =
        cycle > 0 ? static_cast<double>(
                        static_cast<Duration>(lowering.pdus.size()) * slot) /
                        static_cast<double>(cycle)
                  : 0.0;
  }

  // One bound per latency assumption of every bound contract.
  for (const auto& [instance, contract] : contracts) {
    for (const auto& a : contract.assumptions) {
      if (a.timing.latency <= 0) continue;
      const vfb::ResolvedFlow& flow = lowering.flow(instance, a.flow);
      ChainBound cb;
      cb.contract = contract.name;
      cb.instance = instance;
      cb.flow = a.flow;
      cb.deadline = a.timing.latency;
      // The chain tail: the event task of the data-received runnable this
      // flow activates.
      cb.sink_task = flow.sink_task;
      if (!cb.sink_task.empty()) {
        const auto r = out.task_response.find(cb.sink_task);
        if (r != out.task_response.end()) {
          cb.bound = r->second;
          cb.computable = true;
        }
      } else if (result.schedulable) {
        // No event consumer: the obligation ends at delivery (cross-ECU)
        // or at the producer's publication (same ECU).
        for (const auto& end : flow.ends) {
          const auto writer = lowering.writer_task.find(end.key);
          if (writer == lowering.writer_task.end() ||
              result.period[writer->second] <= 0) {
            continue;
          }
          const auto m = message_of.find(end.key);
          cb.bound = std::max(cb.bound,
                              m != message_of.end()
                                  ? result.message_response[m->second]
                                  : result.task_response[writer->second]);
          cb.computable = true;
        }
      }
      out.bounds.push_back(std::move(cb));
    }
  }
  return out;
}

void check_flow_ranges(const vfb::Lowering& g, const ContractMap& contracts,
                       Diagnostics& out) {
  const std::map<std::string, AbsVal> val = propagate_ranges(g, contracts);
  const auto value = [&](const std::string& key) -> AbsVal {
    const auto it = val.find(key);
    return it == val.end() ? AbsVal::bottom() : it->second;
  };

  // --- V8: every constrained assumption against the propagated hull -------
  for (const auto& [instance, contract] : contracts) {
    for (const auto& a : contract.assumptions) {
      if (a.range.unbounded()) continue;
      // Only required-port flows fed by a connector carry values here (an
      // unfed port is V3's finding: nothing flows).
      for (const auto& end : g.flow(instance, a.flow).ends) {
        if (end.receiver_key.empty()) continue;
        // A direct guarantee on the feeding flow is V7's jurisdiction — V8
        // only reports what the pairwise check cannot see.
        const auto pit = contracts.find(end.producer);
        if (pit != contracts.end() &&
            pit->second.flow_spec(end.producer_port, end.element,
                                  /*assumption=*/false) != nullptr) {
          continue;
        }
        const std::string& subject = end.receiver_key;
        const AbsVal v = value(subject);
        switch (v.kind) {
          case AbsVal::Kind::kBottom:
            break;  // nothing dynamic arrives: V3/V12 territory
          case AbsVal::Kind::kTop:
            out.add("V8", Severity::kWarning, subject,
                    "assumption range " + interval_str(a.range) +
                        " cannot be established: the transitive source is "
                        "unconstrained (" + v.origin + ")",
                    "add a range guarantee to the producing component's "
                    "contract");
            break;
          case AbsVal::Kind::kInterval:
            if (v.iv.hi < a.range.lo || v.iv.lo > a.range.hi) {
              out.add("V8", Severity::kError, subject,
                      "transitive value range " + interval_str(v.iv) +
                          " (via " + v.origin +
                          ") can never satisfy assumption " +
                          interval_str(a.range),
                      "the chain delivers values outside the assumed window; "
                      "fix the source guarantee or the assumption");
            } else if (!a.range.contains(v.iv)) {
              out.add("V8", Severity::kWarning, subject,
                      "transitive value range " + interval_str(v.iv) +
                          " (via " + v.origin + ") may exceed assumption " +
                          interval_str(a.range),
                      "tighten the upstream guarantees or widen the "
                      "assumption");
            }
            break;
        }
      }
    }
  }

  // --- V12: liveness on the same graph ------------------------------------
  // Productive: slots whose value can change after init, reached forward
  // from the writes of autonomous writers (no reads). Consumed: slots whose
  // value reaches a terminal consumer, reached backward from the reads of
  // runnables that write nothing.
  std::vector<std::string_view> sources;
  std::vector<std::string_view> sinks;
  std::unordered_set<std::string_view> read;
  for (const auto& rf : g.runnables) {
    if (rf.reads.empty()) {
      sources.insert(sources.end(), rf.writes.begin(), rf.writes.end());
    }
    if (rf.writes.empty()) {
      sinks.insert(sinks.end(), rf.reads.begin(), rf.reads.end());
    }
    read.insert(rf.reads.begin(), rf.reads.end());
  }
  const std::unordered_set<std::string_view> productive =
      reach(g, sources, /*forward=*/true);
  const std::unordered_set<std::string_view> consumed =
      reach(g, sinks, /*forward=*/false);

  // Fire only where V3 stays silent: the immediate link is fine, the chain
  // beyond it is dead. A read must be fed by a written sender key, and a
  // write delivered to a slot some runnable reads (else V3 flags the
  // element); V12 adds the *transitive* case. One diagnostic per slot.
  std::unordered_set<std::string_view> fed_by_written;
  std::unordered_set<std::string_view> delivered_and_read;
  for (const auto& e : g.edges) {
    if (std::binary_search(g.written.begin(), g.written.end(),
                           e.producer_key)) {
      fed_by_written.insert(e.receiver_key);
    }
    if (read.count(e.receiver_key) != 0) {
      delivered_and_read.insert(e.producer_key);
    }
  }
  std::unordered_set<std::string_view> reported;
  for (const auto& rf : g.runnables) {
    for (const auto& r : rf.reads) {
      if (productive.count(r) != 0 || fed_by_written.count(r) == 0) continue;
      if (!reported.insert(r).second) continue;
      out.add("V12", Severity::kWarning, r,
              "dead flow: the value read here can never change — every "
              "transitive source only relays initial values",
              "the relay chain upstream has no autonomous producer; connect "
              "a real source or drop the consumer");
    }
  }
  for (const auto& rf : g.runnables) {
    for (const auto& w : rf.writes) {
      if (consumed.count(w) != 0 || delivered_and_read.count(w) == 0) continue;
      if (!reported.insert(w).second) continue;
      out.add("V12", Severity::kInfo, w,
              "dead flow: this write is relayed downstream but no terminal "
              "consumer ever reads the result",
              "the relay chain ends in unread or unconnected flows; wire up "
              "a consumer or remove the chain");
    }
  }
}

void check_chain_deadlines(const ChainAnalysis& chains, Diagnostics& out) {
  for (const auto& b : chains.bounds) {
    const std::string subject = dot(b.instance, b.flow);
    if (!b.computable) {
      out.add("V9", Severity::kWarning, subject,
              "end-to-end latency obligation of contract " + b.contract +
                  " (" + std::to_string(b.deadline) +
                  " ns) cannot be statically bounded" +
                  (chains.schedulable
                       ? " (chain does not resolve to analyzable tasks)"
                       : " (holistic fixpoint found the deployment "
                         "unschedulable or divergent)"),
              "give every chain stage a WCET bound and a derivable period");
      continue;
    }
    if (b.bound > b.deadline) {
      out.add("V9", Severity::kError, subject,
              "contract " + b.contract + " assumes latency <= " +
                  std::to_string(b.deadline) +
                  " ns but the holistic bound over " +
                  (b.sink_task.empty() ? std::string("the delivery path")
                                       : "task " + b.sink_task) +
                  " is " + std::to_string(b.bound) + " ns",
              "shorten the chain, raise priorities, or relax the assumption");
    } else {
      out.add("V9", Severity::kInfo, subject,
              "end-to-end obligation holds statically: bound " +
                  std::to_string(b.bound) + " ns <= deadline " +
                  std::to_string(b.deadline) + " ns (slack " +
                  std::to_string(b.deadline - b.bound) + " ns, " +
                  std::to_string(chains.iterations) +
                  " fixpoint iterations)");
    }
  }
}

void check_monitor_coverage(const vfb::Lowering& lowering,
                            const vfb::DeploymentPlan& plan,
                            const ContractMap& contracts, Diagnostics& out) {
  const auto unresolved = [&lowering](const std::string& instance,
                                      const std::string& flow) {
    return lowering.flow(instance, flow).ends.empty();
  };
  std::size_t obligations = 0;
  for (const auto& [instance, contract] : contracts) {
    if (lowering.flows.count(instance) == 0) continue;  // V1's finding
    for (const auto& g : contract.guarantees) {
      const bool timed = g.timing.period > 0;
      if (timed) {
        ++obligations;
        if (unresolved(instance, g.flow)) {
          out.add("V10", Severity::kWarning, dot(instance, g.flow),
                  "arrival guarantee of contract " + contract.name +
                      " resolves to no traced flow: no monitor will watch it",
                  "name an existing \"port\" or \"port.element\" flow, or "
                  "connect the port");
        }
      }
      if (!g.range.unbounded()) {
        ++obligations;
        if (unresolved(instance, g.flow)) {
          out.add("V10", Severity::kWarning, dot(instance, g.flow),
                  "value-range guarantee of contract " + contract.name +
                      " resolves to no traced flow: no range monitor will "
                      "watch it",
                  "name an existing \"port\" or \"port.element\" flow, or "
                  "connect the port");
        }
      }
    }
    for (const auto& a : contract.assumptions) {
      const bool latency_bound = a.timing.latency > 0;
      const bool value_bound = !a.range.unbounded();
      if (!latency_bound && !value_bound) continue;
      if (latency_bound) ++obligations;
      if (value_bound) ++obligations;
      if (unresolved(instance, a.flow)) {
        out.add("V10", Severity::kWarning, dot(instance, a.flow),
                (latency_bound ? std::string("latency")
                               : std::string("value-range")) +
                    " assumption of contract " + contract.name +
                    " resolves to no traced flow: no monitor will watch it",
                "the flow must resolve through a feeding connector to a "
                "producer");
      }
    }
    if (contract.behaviour.has_value()) {
      ++obligations;
      bool any_label = false;
      for (const auto& binding : contract.behaviour->bindings) {
        if (!unresolved(instance, binding.flow)) {
          any_label = true;
        }
      }
      if (!any_label) {
        out.add("V10", Severity::kWarning, instance,
                "behavioural contract " + contract.name +
                    " has no resolvable label binding: the automaton "
                    "observer would see no events",
                "bind at least one flow that resolves to a traced subject");
      }
    }
  }
  if (plan.runtime_verification) return;
  if (obligations > 0) {
    out.add("V10", Severity::kWarning, "deployment",
            "runtime verification is disabled but " +
                std::to_string(obligations) +
                " contract obligation(s) exist: nothing watches them at "
                "runtime",
            "set plan.runtime_verification = true or drop the contracts");
  }
  // Plan fields only the monitor registry acts on.
  if (plan.alive_supervision) {
    out.add("V10", Severity::kWarning, "deployment",
            "alive supervision is enabled but runtime verification is "
            "disabled: watchdog expiries reach no monitor registry",
            "set plan.runtime_verification = true or drop "
            "plan.alive_supervision");
  }
  if (!plan.recovery_mode.empty()) {
    out.add("V10", Severity::kWarning, "deployment",
            "recovery mode \"" + plan.recovery_mode +
                "\" is set but runtime verification is disabled: only the "
                "monitor registry requests it",
            "set plan.runtime_verification = true or clear "
            "plan.recovery_mode");
  }
}

void check_resource_budgets(const vfb::Lowering& lowering,
                            const vfb::DeploymentPlan& plan,
                            const ContractMap& contracts, Diagnostics& out) {
  // Generated per-instance CPU share: periodic runnables' wcet/period on the
  // instance's ECU (event tasks inherit chain periods and are judged by V9).
  const auto& measured = lowering.periodic_load;

  std::map<std::string, double> declared_per_ecu;
  double declared_bus_bps = 0.0;
  for (const auto& [instance, contract] : contracts) {
    const auto dep = plan.instances.find(instance);
    if (dep == plan.instances.end()) continue;
    const contracts::ResourceSpec& v = contract.vertical;
    declared_bus_bps += v.bus_bandwidth_bps;
    if (v.cpu_utilization <= 0) continue;
    declared_per_ecu[dep->second.ecu] += v.cpu_utilization;
    const auto mit = measured.find(instance);
    if (mit != measured.end() && mit->second > v.cpu_utilization) {
      out.add("V11", Severity::kWarning, instance,
              "generated periodic load " + std::to_string(mit->second) +
                  " of instance " + instance +
                  " exceeds its vertical CPU assumption " +
                  std::to_string(v.cpu_utilization) + " (contract " +
                  contract.name + ")",
              "raise the vertical assumption or reduce WCET/periods");
    }
  }
  for (const auto& [ecu, sum] : declared_per_ecu) {
    if (sum > 1.0) {
      out.add("V11", Severity::kError, ecu,
              "vertical CPU assumptions of the instances deployed on " + ecu +
                  " sum to " + std::to_string(sum) +
                  " > 1.0: the contracts oversubscribe the node",
              "move an instance to another ECU or renegotiate the "
              "assumptions");
    }
  }
  const double bitrate = plan.bus == vfb::BusKind::kCan
                             ? static_cast<double>(plan.can.bitrate_bps)
                             : static_cast<double>(plan.flexray.bitrate_bps);
  if (declared_bus_bps > bitrate && bitrate > 0) {
    out.add("V11", Severity::kWarning, "bus",
            "declared bus-bandwidth assumptions sum to " +
                std::to_string(declared_bus_bps) + " bps > bus bitrate " +
                std::to_string(bitrate) + " bps",
            "the vertical assumptions exceed what the medium offers");
  }
}

}  // namespace orte::validation
