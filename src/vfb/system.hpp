// System generation: Composition + DeploymentPlan -> executable system.
//
// This is the AUTOSAR methodology step the paper describes ("all subsequent
// development steps up to the generation of executable code"). vfb::lower()
// derives the deployment from the VFB model and the mapping of component
// instances to ECUs. System lowers once, runs every validation rule over
// that lowering (strict mode: an error throws the report
// validation::validate(model, plan) renders) and instantiates it:
//  * the generated OS tasks (one per (instance, period) for timing runnables
//    at rate-monotonic priorities per ECU, one event task per data-received
//    runnable) with the plan's execution budgets — the §1/§2
//    multi-supplier protection story,
//  * COM signals/I-PDUs for every cross-ECU connector element, with frame
//    identifiers by rate on CAN or dedicated static slots on FlexRay,
//  * RTE routing tables (local copies vs network sends) and data-received
//    activations,
//  * the runtime monitors and alive supervision of the lowered inventory.
// It keeps that lowering (lowering()), which fault injection checks its
// targets against. System sits above the validation library; the model,
// the lowering and the RTE sit below it (library orte_vfb_core).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bsw/com.hpp"
#include "bsw/watchdog.hpp"
#include "can/can_bus.hpp"
#include "flexray/flexray_bus.hpp"
#include "os/ecu.hpp"
#include "rv/registry.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"
#include "validation/flow_analysis.hpp"
#include "vfb/deployment.hpp"
#include "vfb/lowering.hpp"
#include "vfb/model.hpp"
#include "vfb/rte.hpp"

namespace orte::vfb {

/// A generated, runnable distributed system.
class System {
 public:
  System(sim::Kernel& kernel, sim::Trace& trace, const Composition& model,
         DeploymentPlan plan);
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// The configuration check (§2): validation::analyze_chains over
  /// lower(model, plan), the same analysis of the same lowering V9 judged at
  /// construction. Recomputed on every call, so the system keeps no
  /// analysis state; call before start() to verify the configuration.
  [[nodiscard]] validation::ChainAnalysis analyze() const;

  /// Start all ECUs, COM stacks and the bus; then advance simulated time.
  void start();
  void run_for(sim::Duration horizon);

  [[nodiscard]] os::Ecu& ecu(const std::string& name);
  [[nodiscard]] Rte& rte(const std::string& ecu_name);
  [[nodiscard]] bsw::Com& com(const std::string& ecu_name);
  [[nodiscard]] os::Task* task_of(const std::string& instance,
                                  sim::Duration period);
  [[nodiscard]] can::CanBus* can_bus() const { return can_.get(); }
  [[nodiscard]] flexray::FlexRayBus* flexray_bus() const {
    return flexray_.get();
  }
  [[nodiscard]] const std::vector<std::string>& ecu_names() const {
    return lowering_.ecus;
  }
  /// Bus node index of an ECU's controller (== its index in ecu_names();
  /// controllers attach in that order), or -1 for an unknown name. Lets
  /// frame-level instrumentation (fault injection, per-node accounting)
  /// address "frames sent by ECU X" via net::Frame::source.
  [[nodiscard]] int node_of(const std::string& ecu_name) const;
  [[nodiscard]] std::size_t signal_count() const;

  /// The lowered deployment this system instantiated. Once built it keeps
  /// only what task_of() and fault admission (validation::check_faults)
  /// read: `ecus`, `tasks`, `pdus`, `written` and the bus configuration;
  /// every other list is released.
  [[nodiscard]] const Lowering& lowering() const { return lowering_; }

  // --- Runtime verification (rv layer) ---------------------------------------
  /// The monitor registry compiled from the model's bound contracts and the
  /// generated tasks; null when the plan disables runtime_verification. The
  /// registry arrives pre-populated (deadline monitors for every generated
  /// task, arrival/latency/automaton monitors from contracts) with the
  /// quarantine hook wired to this system's RTEs; callers attach escalation
  /// via monitors()->report_to(dem) / escalate_to(modes, ...).
  [[nodiscard]] rv::MonitorRegistry* monitors() { return registry_.get(); }
  /// Drop all future port writes of `instance` at its RTE (containment
  /// reaction; see Rte::quarantine). Safe for any deployed instance.
  void quarantine(const std::string& instance);

 private:
  struct EcuCtx {
    std::unique_ptr<os::Ecu> ecu;
    std::unique_ptr<bsw::Com> com;
    std::unique_ptr<Rte> rte;
    net::Controller* controller = nullptr;
  };

  void build();
  void build_com();
  void build_tasks();
  /// `bounds` are the holistic chain bounds V9 judged; each latency
  /// monitor records its chain's bound.
  void build_monitors(const std::vector<validation::ChainBound>& bounds);
  /// Bind watchdog alive supervision of the lowered heartbeats (the fail-
  /// silence detector; plan_.alive_supervision opt-in), one WatchdogManager
  /// per producing ECU; expiries become rv "alive" violations.
  void build_alive_supervision();
  EcuCtx& ctx(const std::string& ecu_name);

  sim::Kernel& kernel_;
  sim::Trace& trace_;
  const Composition& model_;
  DeploymentPlan plan_;
  Lowering lowering_;

  std::map<std::string, EcuCtx> ecus_;
  std::unique_ptr<can::CanBus> can_;
  std::unique_ptr<flexray::FlexRayBus> flexray_;
  std::unique_ptr<rv::MonitorRegistry> registry_;
  /// ECU name -> its alive-supervision watchdog (empty without the opt-in).
  std::map<std::string, std::unique_ptr<bsw::WatchdogManager>> watchdogs_;
  /// Supervised sender key -> the contract guaranteeing its heartbeat and
  /// the producing instance ("alive" violations).
  struct Heartbeat {
    std::string contract;
    std::string blame;
    sim::Duration period = 0;
  };
  std::map<std::string, Heartbeat, std::less<>> heartbeats_;
  /// Interned subject ID of a supervised key -> the watchdog to checkpoint.
  std::unordered_map<sim::TraceId, bsw::WatchdogManager*> checkpoint_routes_;
  bool started_ = false;
};

}  // namespace orte::vfb
