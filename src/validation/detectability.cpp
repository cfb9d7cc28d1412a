#include "validation/detectability.hpp"

#include "validation/flow_analysis.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace orte::validation {

namespace {

using contracts::Contract;
using vfb::DeploymentPlan;
using vfb::MonitorEntry;

using ContractMap = std::map<std::string, Contract, std::less<>>;

// --- Admission ----------------------------------------------------------------

/// Throw when `f`'s target names nothing of its kind in `l`.
void check_target(const vfb::Lowering& l, const fi::Fault& f) {
  const fi::FaultClass cls = fi::fault_class(f.kind);
  // A babbling idiot ignores its target; an empty frame target means every
  // frame.
  if (f.kind == fi::FaultKind::kBabblingIdiot ||
      (cls == fi::FaultClass::kBus && f.target.empty())) {
    return;
  }
  std::string_view what;
  std::set<std::string> valid;
  switch (cls) {
    case fi::FaultClass::kBus:
      what = "frame";
      for (const auto& pdu : l.pdus) valid.insert(pdu.name);
      break;
    case fi::FaultClass::kRteValue:
      what = "written sender key or its instance";
      valid.insert(l.written.begin(), l.written.end());
      break;
    case fi::FaultClass::kTiming:
      what = "instance owning a task";
      for (const auto& t : l.tasks) valid.insert(t.instance);
      break;
    case fi::FaultClass::kClock:
      what = "ECU";
      valid.insert(l.ecus.begin(), l.ecus.end());
      break;
  }
  // Frames and sender keys take a segment prefix; instances and ECUs are
  // named exactly, as the injector looks them up.
  const bool prefix =
      cls == fi::FaultClass::kBus || cls == fi::FaultClass::kRteValue;
  if (std::any_of(valid.begin(), valid.end(), [&](const std::string& name) {
        return prefix ? vfb::key_matches(f.target, name) : name == f.target;
      })) {
    return;
  }
  std::string names;
  for (const auto& n : valid) names += (names.empty() ? "" : ", ") + n;
  throw std::invalid_argument("fi: fault " + f.label() + ": target \"" +
                              f.target + "\" names no " + std::string(what) +
                              " (valid: " + (names.empty() ? "none" : names) +
                              ")");
}

/// Throw when a parameter of `f` would make the isolation WCET helpers throw
/// inside a job (on a campaign worker) or could never act on `l`'s bus.
void check_parameters(const vfb::Lowering& l, const fi::Fault& f) {
  const auto reject = [&f](const std::string& problem) {
    throw std::invalid_argument("fi: fault " + f.label() + ": " + problem);
  };
  char magnitude[32];
  std::snprintf(magnitude, sizeof(magnitude), "%g", f.magnitude);
  switch (f.kind) {
    case fi::FaultKind::kExecutionJitter:
      if (!(f.magnitude >= 0.0 && f.magnitude <= 1.0)) {
        reject(std::string("magnitude ") + magnitude + " is outside [0, 1]");
      }
      break;
    case fi::FaultKind::kWcetOverrun:
      if (!(f.magnitude >= 1.0)) {
        reject(std::string("magnitude ") + magnitude + " is below 1");
      }
      break;
    case fi::FaultKind::kFrameDelay:
      if (l.bus == vfb::BusKind::kFlexRay) {
        reject("a FlexRay bus ignores frame delays (its static slots pin "
               "frame timing)");
      }
      break;
    default:
      break;
  }
}

// --- Perturbation atoms -------------------------------------------------------

/// One perturbed observable. The kinds partition what the trace can show:
/// a fault and a monitor meet exactly when they name the same atom.
struct Atom {
  enum class Kind {
    kWriteValue,    ///< The value published under a sender key changes.
    kWriteTiming,   ///< The instants of writes under a sender key shift.
    kWriteAbsence,  ///< Writes under a sender key stop entirely.
    kDeliverValue,  ///< The value arriving at a receiver slot changes.
    kDelivery,      ///< Delivery along one connector edge is lost/late.
    kTaskTiming,    ///< An instance's task timing records degrade.
  };
  Kind kind;
  std::string key;

  auto operator<=>(const Atom&) const = default;
};

std::string render(const Atom& a) {
  std::string_view prefix;
  switch (a.kind) {
    case Atom::Kind::kWriteValue:
      prefix = "write-value ";
      break;
    case Atom::Kind::kWriteTiming:
      prefix = "write-timing ";
      break;
    case Atom::Kind::kWriteAbsence:
      prefix = "write-absence ";
      break;
    case Atom::Kind::kDeliverValue:
      prefix = "deliver-value ";
      break;
    case Atom::Kind::kDelivery:
      prefix = "delivery ";
      break;
    case Atom::Kind::kTaskTiming:
      prefix = "task-timing ";
      break;
  }
  return std::string(prefix) + a.key;
}

// --- World model --------------------------------------------------------------

/// What the perturbation analysis reads of the lowering, indexed.
struct World {
  const vfb::Lowering& lowering;
  /// Instance -> every sender slot key its runnables write.
  std::map<std::string, std::set<std::string>> writes_of;
  /// Instances owning a periodic task.
  std::set<std::string> periodic_instances;

  explicit World(const vfb::Lowering& l) : lowering(l) {
    for (const auto& io : l.runnables) {
      writes_of[io.instance].insert(io.writes.begin(), io.writes.end());
    }
    for (const auto& t : l.tasks) {
      if (t.periodic()) periodic_instances.insert(t.instance);
    }
  }
};

// --- Monitor inventory --------------------------------------------------------

/// A compiled plane plus the atom it observes.
struct Plane {
  MonitorPlane pub;
  Atom atom;
};

/// The planes of the lowered monitor inventory: one deadline plane per
/// periodic instance (deadline monitors of event tasks have no period to
/// miss), then every flow monitor in inventory order.
std::vector<Plane> build_planes(const World& w) {
  std::vector<Plane> planes;
  const auto add = [&planes](MonitorEntry::Kind kind, Atom atom,
                             const std::string& blame) {
    planes.push_back(Plane{MonitorPlane{kind, render(atom), blame},
                           std::move(atom)});
  };
  for (const auto& instance : w.periodic_instances) {
    add(MonitorEntry::Kind::kDeadline,
        Atom{Atom::Kind::kTaskTiming, instance}, instance);
  }
  for (const auto& m : w.lowering.monitors) {
    switch (m.kind) {
      case MonitorEntry::Kind::kDeadline:
        break;  // one plane per periodic instance, above
      case MonitorEntry::Kind::kArrival:
        add(m.kind, Atom{Atom::Kind::kWriteTiming, m.subject}, m.blame);
        break;
      case MonitorEntry::Kind::kRangeWrite:
        add(m.kind, Atom{Atom::Kind::kWriteValue, m.subject}, m.blame);
        break;
      case MonitorEntry::Kind::kRangeDeliver:
        add(m.kind, Atom{Atom::Kind::kDeliverValue, m.subject}, m.blame);
        break;
      case MonitorEntry::Kind::kLatency:
        // One delivery edge: producer write -> consumer activation.
        add(m.kind, Atom{Atom::Kind::kDelivery, m.subject + " -> " + m.sink},
            m.blame);
        break;
      case MonitorEntry::Kind::kAutomaton:
        // A perturbed value or shifted timing can break the word.
        add(m.kind, Atom{Atom::Kind::kWriteValue, m.subject}, m.blame);
        add(m.kind, Atom{Atom::Kind::kWriteTiming, m.subject}, m.blame);
        break;
      case MonitorEntry::Kind::kAlive:
        // The only plane that observes the *absence* of writes.
        add(m.kind, Atom{Atom::Kind::kWriteAbsence, m.subject}, m.blame);
        break;
    }
  }
  return planes;
}

// --- Fault -> perturbation set ------------------------------------------------

/// Cross-ECU edges a frame fault hits: those carrying a signal of a PDU
/// the target names (vfb::key_matches, the rule the injector matches frame
/// names with; an empty target hits every PDU).
std::vector<const vfb::FlowEdge*> frame_edges(const fi::Fault& f,
                                              const World& w) {
  std::set<std::string> carried;
  for (const auto& pdu : w.lowering.pdus) {
    if (!f.target.empty() && !vfb::key_matches(f.target, pdu.name)) continue;
    for (const auto& [index, offset] : pdu.signals) {
      carried.insert(w.lowering.signals[index].sender_key);
    }
  }
  std::vector<const vfb::FlowEdge*> hit;
  for (const auto& e : w.lowering.edges) {
    if (e.cross_ecu && carried.count(e.producer_key) != 0) hit.push_back(&e);
  }
  return hit;
}

std::set<Atom> perturbation_of(const fi::Fault& f, const World& w,
                               const DeploymentPlan& plan) {
  std::set<Atom> atoms;
  const auto add_delivery = [&atoms](const vfb::FlowEdge& e) {
    atoms.insert(
        Atom{Atom::Kind::kDelivery, e.producer_key + " -> " + e.dst_instance});
  };
  // A perturbed value travels the slot dataflow: every written key it
  // reaches publishes it, every receiver slot it reaches delivers it.
  const auto add_values = [&atoms, &l = w.lowering](
                              const std::vector<std::string_view>& seeds) {
    const auto reached = reach(l, seeds, /*forward=*/true);
    for (const std::string_view k : reached) {
      if (std::binary_search(l.written.begin(), l.written.end(), k)) {
        atoms.insert(Atom{Atom::Kind::kWriteValue, std::string(k)});
      }
    }
    for (const auto& e : l.edges) {
      if (reached.count(e.receiver_key) != 0) {
        atoms.insert(Atom{Atom::Kind::kDeliverValue, e.receiver_key});
      }
    }
  };
  switch (f.kind) {
    case fi::FaultKind::kFrameDelay:  // CAN only: admission rejects FlexRay
    case fi::FaultKind::kFrameDrop:
      for (const vfb::FlowEdge* e : frame_edges(f, w)) add_delivery(*e);
      break;
    case fi::FaultKind::kFrameCorrupt: {
      std::vector<std::string_view> delivers;
      for (const vfb::FlowEdge* e : frame_edges(f, w)) {
        delivers.push_back(e->receiver_key);
      }
      add_values(delivers);
      break;
    }
    case fi::FaultKind::kBabblingIdiot:
      // On an arbitrated bus the flood starves every real frame; TDMA buses
      // contain the babbler structurally (static slots) — it perturbs
      // NOTHING a component-level monitor could see.
      if (plan.bus == vfb::BusKind::kCan) {
        for (const auto& e : w.lowering.edges) {
          if (e.cross_ecu) add_delivery(e);
        }
      }
      break;
    case fi::FaultKind::kValueCorrupt:
    case fi::FaultKind::kStuckAt: {
      std::vector<std::string_view> writes;
      for (const auto& key : w.lowering.written) {
        if (vfb::key_matches(f.target, key)) writes.push_back(key);
      }
      add_values(writes);
      break;
    }
    case fi::FaultKind::kTaskCrash: {
      // Fail-silence: a dead producer emits NO observable — no late write,
      // no bad value, no deadline record. The only perturbation is the
      // absence of its writes, which only alive supervision can sense.
      const auto it = w.writes_of.find(f.target);
      if (it != w.writes_of.end()) {
        for (const auto& key : it->second) {
          atoms.insert(Atom{Atom::Kind::kWriteAbsence, key});
        }
      }
      break;
    }
    case fi::FaultKind::kWcetOverrun:
    case fi::FaultKind::kExecutionJitter: {
      atoms.insert(Atom{Atom::Kind::kTaskTiming, f.target});
      const auto it = w.writes_of.find(f.target);
      if (it != w.writes_of.end()) {
        for (const auto& key : it->second) {
          atoms.insert(Atom{Atom::Kind::kWriteTiming, key});
        }
      }
      for (const auto& e : w.lowering.edges) {
        if (e.src_instance == f.target) add_delivery(e);
      }
      break;
    }
    case fi::FaultKind::kClockDrift:
      for (const auto& e : w.lowering.edges) {
        if (e.cross_ecu && e.src_ecu == f.target) add_delivery(e);
      }
      break;
  }
  return atoms;
}

FaultVerdict judge(const fi::Fault& f, const World& w,
                   const DeploymentPlan& plan,
                   const std::vector<Plane>& planes) {
  FaultVerdict v;
  v.fault = f;
  const std::set<Atom> atoms = perturbation_of(f, w, plan);
  v.perturbs = !atoms.empty();
  const fi::Domain domain = fi::domain_of(f, plan);
  bool any_in_domain = false;
  bool all_in_domain = true;
  for (const auto& p : planes) {
    if (atoms.count(p.atom) == 0) continue;
    v.observers.push_back(p.pub);
    if (domain.contains(p.pub.blame)) {
      any_in_domain = true;
    } else {
      all_in_domain = false;
    }
  }
  v.detectable = !v.observers.empty();
  v.containment_gap = v.detectable && !any_in_domain;
  v.contained = v.detectable && all_in_domain;
  return v;
}

/// The canonical per-model fault inventory check_detectability judges: one
/// representative per plane the deployment can physically express.
std::vector<fi::Fault> canonical_faults(const ContractMap& contracts,
                                        const World& w) {
  std::vector<fi::Fault> faults;
  const auto& edges = w.lowering.edges;
  const bool networked =
      std::any_of(edges.begin(), edges.end(),
                  [](const vfb::FlowEdge& e) { return e.cross_ecu; });
  if (networked) {
    faults.push_back({.kind = fi::FaultKind::kFrameDrop});
    faults.push_back({.kind = fi::FaultKind::kFrameCorrupt});
    faults.push_back({.kind = fi::FaultKind::kBabblingIdiot});
    std::set<std::string> sourcing_ecus;
    for (const auto& e : edges) {
      if (e.cross_ecu) sourcing_ecus.insert(e.src_ecu);
    }
    for (const auto& ecu : sourcing_ecus) {
      faults.push_back({.kind = fi::FaultKind::kClockDrift, .target = ecu});
    }
  }
  for (const auto& [instance, contract] : contracts) {
    bool resolvable_guarantee = false;
    for (const auto& g : contract.guarantees) {
      const auto& ends = w.lowering.flow(instance, g.flow).ends;
      if (!ends.empty()) resolvable_guarantee = true;
      if (g.range.unbounded()) continue;
      for (const auto& end : ends) {
        faults.push_back({.kind = fi::FaultKind::kStuckAt, .target = end.key});
      }
    }
    if (!resolvable_guarantee || w.writes_of.count(instance) == 0) continue;
    faults.push_back({.kind = fi::FaultKind::kTaskCrash, .target = instance});
    if (w.periodic_instances.count(instance) != 0) {
      faults.push_back(
          {.kind = fi::FaultKind::kWcetOverrun, .target = instance});
    }
  }
  return faults;
}

}  // namespace

DetectabilityAnalysis analyze_detectability(
    const vfb::Composition& model, const vfb::DeploymentPlan& plan,
    const std::vector<fi::Fault>& faults) {
  DetectabilityAnalysis out;
  const vfb::Lowering lowering = vfb::lower(model, plan);
  check_faults(lowering, faults);
  const World w(lowering);
  const std::vector<Plane> planes =
      plan.runtime_verification ? build_planes(w) : std::vector<Plane>{};
  out.monitors.reserve(planes.size());
  for (const auto& p : planes) out.monitors.push_back(p.pub);
  out.verdicts.reserve(faults.size());
  for (const auto& f : faults) {
    out.verdicts.push_back(judge(f, w, plan, planes));
  }
  return out;
}

void check_faults(const vfb::Lowering& lowering,
                  const std::vector<fi::Fault>& faults) {
  for (const fi::Fault& f : faults) {
    check_target(lowering, f);
    check_parameters(lowering, f);
  }
}

void check_detectability(
    const vfb::Lowering& lowering, const vfb::DeploymentPlan& plan,
    const std::map<std::string, contracts::Contract, std::less<>>& contracts,
    Diagnostics& out) {
  // With the rv layer disabled NOTHING is detectable — V10 already flags
  // obligations a disabled registry would orphan; repeating that per fault
  // plane would be noise.
  if (!plan.runtime_verification || contracts.empty()) return;

  // The canonical faults are built from the lowering, so they skip
  // admission (which would cost faults x names on a vehicle-size model).
  const World w(lowering);
  const std::vector<Plane> planes = build_planes(w);
  const std::vector<fi::Fault> faults = canonical_faults(contracts, w);

  for (const auto& f : faults) {
    const FaultVerdict v = judge(f, w, plan, planes);
    if (v.perturbs && !v.detectable) {
      const bool crash = f.kind == fi::FaultKind::kTaskCrash;
      out.add("V13", Severity::kWarning, f.label(),
              "fault plane perturbs observable flows but no compiled runtime "
              "monitor watches any of them — a campaign scores it missed",
              crash ? "a crashed producer is fail-silent; set "
                      "DeploymentPlan::alive_supervision = true to bind "
                      "watchdog alive supervision from the contract periods"
                    : "declare a range/period/latency obligation on an "
                      "affected flow so a monitor is compiled for it");
    }
    if (v.containment_gap) {
      out.add("V14", Severity::kWarning, f.label(),
              "fault is detectable, but every observing monitor blames an "
              "instance outside the fault's containment domain — detection "
              "can never score as contained",
              "add an obligation whose violation blames the faulty domain "
              "(e.g. a bus guardian / TDMA slotting for rogue nodes) or "
              "accept the leak as a measured gap");
    }
  }

  // V15: periodic guarantees imply a heartbeat; without alive supervision
  // the producer's crash is invisible (the one-flag fix for V13's crash
  // planes). One diagnostic per supervised-able sender key.
  if (!plan.alive_supervision) {
    std::set<std::string> flagged;
    for (const auto& [instance, contract] : contracts) {
      for (const auto& g : contract.guarantees) {
        if (g.timing.period <= 0) continue;
        for (const auto& end : lowering.flow(instance, g.flow).ends) {
          if (!flagged.insert(end.key).second) continue;
          out.add("V15", Severity::kWarning, end.key,
                  "periodic guarantee " + contract.name + "." + g.flow +
                      " implies a heartbeat, but no watchdog alive "
                      "supervision is bound to it",
                  "set DeploymentPlan::alive_supervision = true to "
                  "supervise contract periods with bsw::WatchdogManager");
        }
      }
    }
  }
}

}  // namespace orte::validation
