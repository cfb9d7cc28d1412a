// Per-ECU Runtime Environment: "the run-time implementation of the Virtual
// Functional Bus on a specific ECU" (§2).
//
// The RTE routes every port write to its connected receivers: same-ECU
// connections become in-memory copies (plus data-received activations),
// cross-ECU connections become COM signal transmissions. It also implements
// the two AUTOSAR access semantics:
//  * implicit — a runnable sees a stable snapshot taken when it starts and
//    publishes its outputs only when it completes,
//  * explicit — reads/writes touch the live values immediately.
//
// Like a generated AUTOSAR RTE, every access is bound when the system is
// built: Rte::bind resolves each access a runnable declares to its receiver
// slot, sender routes and trace IDs once, so a job's reads and writes
// follow pointers and never build or look up a key string.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "bsw/com.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"
#include "vfb/model.hpp"

namespace orte::vfb {

class RunnableContext;

class Rte {
 public:
  /// Bound of a queued receiver slot (AUTOSAR queue length); a full queue
  /// rejects the incoming value.
  static constexpr std::size_t kDefaultQueueLength = 16;

  Rte(sim::Kernel& kernel, sim::Trace& trace, const Composition& composition,
      std::string ecu_name);
  Rte(const Rte&) = delete;
  Rte& operator=(const Rte&) = delete;

  static std::string key(std::string_view instance, std::string_view port,
                         std::string_view element);

 private:
  struct Slot {
    std::uint64_t value = 0;  ///< Last-is-best slots only; init for queued.
    /// Data-element name (last key segment), kept so runtime trace records
    /// name the element a diagnosis (V3/V4 rules) talks about directly.
    std::string element;
    sim::TraceId key_id = sim::kNoTraceId;  ///< Interned receiver key.
    bool queued = false;
    std::deque<std::uint64_t> queue;
    sim::Time last_update = -1;
    /// Data-received activations, run after every accepted update.
    std::vector<std::function<void()>> hooks;
  };
  /// Per-instance state shared by its senders and bindings.
  struct Component {
    const std::string* name = nullptr;  ///< The map key.
    sim::TraceId id = sim::kNoTraceId;  ///< Interned instance name.
    bool quarantined = false;
  };
  struct RemoteRoute {
    bsw::Com* com = nullptr;
    std::string signal;
  };
  /// Everything a write under one sender key reaches.
  struct Sender {
    const std::string* key = nullptr;  ///< The map key ("inst.port.elem").
    sim::TraceId key_id = sim::kNoTraceId;
    Component* owner = nullptr;  ///< Instance owning the key (quarantine).
    std::vector<Slot*> receivers;  ///< Same-ECU slots, in route order.
    std::vector<RemoteRoute> remotes;
  };

 public:
  /// One (instance, runnable) with every declared access resolved at
  /// generation: the receiver slot it reads, the sender it publishes
  /// through, and the implicit snapshot/outbox buffers. Built by bind() and
  /// held by the generated task segments; opaque to everyone else.
  struct Binding {
    struct Access {
      Slot* slot = nullptr;      ///< Null when nothing feeds the element.
      Sender* sender = nullptr;  ///< Publishes writes under the access key.
      std::uint64_t init = 0;    ///< Element init (no slot, empty queue).
      /// First access naming the same (port, element); its buffers serve
      /// every duplicate, as one key did before binding.
      std::size_t first = 0;
      std::uint64_t snapshot = 0;  ///< Implicit read: captured at start.
      std::uint64_t outbox = 0;    ///< Implicit write: published at end.
      bool pending = false;        ///< `outbox` holds an unpublished value.
    };
    Component* component = nullptr;
    const Runnable* runnable = nullptr;
    std::vector<Access> accesses;  ///< Parallel to runnable->accesses.
  };

  // --- Wiring (called by the System generator) ------------------------------
  /// Same-ECU connection: writes to `sender` propagate to `receiver`.
  void add_local_route(const std::string& sender_key,
                       const std::string& receiver_key, bool queued,
                       std::uint64_t init);
  /// Cross-ECU connection: writes to `sender` go out as a COM signal.
  void add_remote_route(const std::string& sender_key, bsw::Com& com,
                        std::string signal);
  /// Declare a receiver slot fed from the network: every reception of COM
  /// signal `signal` is delivered into it.
  void add_remote_receiver(const std::string& receiver_key, bsw::Com& com,
                           const std::string& signal, bool queued,
                           std::uint64_t init);
  /// Deliver a value into a receiver slot, as a route or COM would.
  void deliver(const std::string& receiver_key, std::uint64_t value);
  /// Run `cb` whenever `receiver_key` is updated (data-received activation).
  /// A key with no slot is never updated, so its hook is dropped.
  void on_update(const std::string& receiver_key, std::function<void()> cb);
  /// Resolve every declared access of `runnable` on `instance` against the
  /// routes wired so far. Call after the wiring, once per (instance,
  /// runnable); the binding lives as long as the Rte.
  Binding& bind(const std::string& instance, const Runnable& runnable);

  // --- Execution (called from generated task segments) ----------------------
  /// Snapshot all implicit-read accesses of the runnable (segment start).
  void capture_implicit(Binding& binding);
  /// Execute the behavior and publish implicit writes (segment end).
  void run_behavior(Binding& binding);

  // --- Fault injection (fi layer) --------------------------------------------
  /// Interceptor over every outbound port write, consulted at the publish
  /// choke point BEFORE quarantine filtering and routing. It may rewrite the
  /// value in place (corruption, stuck-at) or return false to swallow the
  /// write entirely (fail-silent crash) — swallowed writes are counted and
  /// traced as "rte.fault_drop". One interceptor per RTE; pass {} to clear.
  using WriteInterceptor =
      std::function<bool(std::string_view sender_key, std::uint64_t& value)>;
  void intercept_writes(WriteInterceptor hook) {
    write_interceptor_ = std::move(hook);
  }
  /// Writes swallowed by the interceptor since construction.
  [[nodiscard]] std::uint64_t intercepted_drops() const {
    return intercepted_drops_;
  }

  // --- Health management (graceful degradation, §1/§4) -----------------------
  /// Quarantine an instance: its port writes are dropped at the RTE instead
  /// of propagating (local routes and COM transmissions alike), so receivers
  /// keep their last good value / init — the "fail silent at the component
  /// boundary" containment reaction. Each drop emits an "rte.quarantine_drop"
  /// trace record. Reads, calls, and already-delivered values are unaffected.
  void quarantine(const std::string& instance);
  /// Lift a quarantine (e.g. after a recovery mode transition).
  void release(const std::string& instance);
  [[nodiscard]] bool is_quarantined(std::string_view instance) const;
  /// Writes suppressed by quarantine since construction.
  [[nodiscard]] std::uint64_t quarantined_drops() const {
    return quarantined_drops_;
  }

  // --- Introspection ---------------------------------------------------------
  [[nodiscard]] std::uint64_t writes() const { return writes_; }
  [[nodiscard]] std::uint64_t reads() const { return reads_; }
  [[nodiscard]] std::uint64_t calls() const { return calls_; }
  /// Values rejected by full receiver queues.
  [[nodiscard]] std::uint64_t overflows() const { return overflows_; }
  [[nodiscard]] const std::string& ecu_name() const { return ecu_name_; }
  /// Live value of a receiver slot (testing/diagnosis).
  [[nodiscard]] std::uint64_t peek(const std::string& receiver_key) const;

 private:
  friend class RunnableContext;

  /// The RTE's trace categories, interned once at construction.
  struct Categories {
    sim::TraceId runnable, write, deliver, queue_overflow, fault_drop,
        quarantine_drop, call;
  };

  Slot& slot(const std::string& receiver_key, bool queued, std::uint64_t init);
  Sender& sender(const std::string& sender_key);
  Component& component(std::string_view instance);
  void deliver(Slot& slot, std::uint64_t value);
  void publish(Sender& sender, std::uint64_t value);
  std::uint64_t context_read(Binding& binding, std::size_t index);
  void context_write(Binding& binding, std::size_t index,
                     std::uint64_t value);
  std::uint64_t context_call(const Binding& binding, std::string_view port,
                             std::string_view operation,
                             std::uint64_t argument);

  sim::Kernel& kernel_;
  sim::Trace& trace_;
  const Composition& composition_;
  std::string ecu_name_;
  Categories cat_;

  // Map nodes never move, so bindings and routes hold plain pointers into
  // these tables; the string keys are consulted only while wiring.
  std::map<std::string, Slot, std::less<>> slots_;  ///< Receiver side.
  std::map<std::string, Sender, std::less<>> senders_;
  std::map<std::string, Component, std::less<>> components_;
  std::deque<Binding> bindings_;

  WriteInterceptor write_interceptor_;
  std::uint64_t intercepted_drops_ = 0;

  std::uint64_t writes_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t calls_ = 0;
  std::uint64_t overflows_ = 0;
  std::uint64_t quarantined_drops_ = 0;
};

/// The API surface a runnable's behavior sees (Rte_Read/Rte_Write/Rte_Call).
/// Accesses are found by their position in the runnable's declared
/// accesses and served from the binding the generator resolved.
class RunnableContext {
 public:
  /// Read a data element through a required port. Implicit accesses return
  /// the snapshot captured at runnable start; queued elements pop FIFO.
  std::uint64_t read(std::string_view port, std::string_view element);
  /// Write a data element through a provided port. Implicit accesses are
  /// published at runnable completion; explicit ones immediately.
  void write(std::string_view port, std::string_view element,
             std::uint64_t value);
  /// Synchronous client-server call through a required port.
  std::uint64_t call(std::string_view port, std::string_view operation,
                     std::uint64_t argument);
  [[nodiscard]] sim::Time now() const;
  [[nodiscard]] const std::string& instance() const {
    return *binding_->component->name;
  }

 private:
  friend class Rte;
  RunnableContext(Rte& rte, Rte::Binding& binding)
      : rte_(&rte), binding_(&binding) {}
  /// Index of the first declared access of (port, element); throws a
  /// logic_error naming the undeclared `what` access otherwise.
  std::size_t access_index(std::string_view port, std::string_view element,
                           std::string_view what) const;

  Rte* rte_;
  Rte::Binding* binding_;
};

}  // namespace orte::vfb
