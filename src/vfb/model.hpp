// AUTOSAR-style component model: the design-time view of the Virtual
// Functional Bus (§2).
//
// Software components (SWC types) expose ports typed by port interfaces
// (sender-receiver data elements or client-server operations) and contain
// runnables triggered by timing or data-received events. Compositions
// instantiate types and wire ports with assembly connectors. The model is
// deployment-independent: the same Composition maps onto 1 ECU or N ECUs
// (location independence), which is exactly what the extensibility and
// integration experiments exercise. A Composition indexes every name it owns
// (interfaces, types, instances, feeding connectors): no lookup scans.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "contracts/contract.hpp"
#include "sim/time.hpp"

namespace orte::vfb {

using sim::Duration;

struct DataElement {
  std::string name;
  std::size_t bit_length = 32;  ///< 1..64; packed into COM signals as-is.
  std::uint64_t init = 0;
  /// Queued (event) semantics instead of last-is-best. A receiver queue
  /// holds Rte::kDefaultQueueLength values and rejects a value when full
  /// (AUTOSAR E_LIMIT).
  bool queued = false;
};

struct Operation {
  std::string name;
  Duration wcet = 0;  ///< Server execution time, inlined into sync callers.
};

struct PortInterface {
  enum class Kind { kSenderReceiver, kClientServer };
  std::string name;
  Kind kind = Kind::kSenderReceiver;
  std::vector<DataElement> elements;    ///< Sender-receiver payload.
  std::vector<Operation> operations;    ///< Client-server operations.
};

enum class PortDirection { kProvided, kRequired };

struct Port {
  std::string name;
  std::string interface;
  PortDirection direction = PortDirection::kProvided;
};

enum class DataAccessKind {
  kImplicitRead,   ///< Stable copy taken at runnable start.
  kImplicitWrite,  ///< Published at runnable completion.
  kExplicitRead,   ///< Reads the live value during execution.
  kExplicitWrite,  ///< Publishes immediately during execution.
};

struct DataAccess {
  std::string port;
  std::string element;
  DataAccessKind kind = DataAccessKind::kExplicitRead;
};

/// True for implicit and explicit writes.
[[nodiscard]] bool is_write(DataAccessKind kind);

struct RunnableTrigger {
  enum class Kind { kTiming, kDataReceived };
  Kind kind = Kind::kTiming;
  Duration period = 0;   ///< kTiming.
  std::string port;      ///< kDataReceived.
  std::string element;   ///< kDataReceived.

  static RunnableTrigger timing(Duration period) {
    return {Kind::kTiming, period, {}, {}};
  }
  static RunnableTrigger data_received(std::string port, std::string element) {
    return {Kind::kDataReceived, 0, std::move(port), std::move(element)};
  }
};

class RunnableContext;  // defined in rte.hpp

struct Runnable {
  std::string name;
  RunnableTrigger trigger;
  /// Execution time per activation (re-evaluated each run, so fault
  /// injection / jittery execution is a closure away). Null = zero time.
  std::function<Duration()> execution_time;
  /// Declared WCET bound for design-time analysis and time-triggered
  /// schedule synthesis; 0 = "use a probe of execution_time" (valid only for
  /// deterministic execution-time closures).
  Duration wcet_bound = 0;
  std::vector<DataAccess> accesses;
  /// "port.operation" sync server calls this runnable may make; their WCET is
  /// inlined into this runnable's budget by the RTE generator.
  std::vector<std::string> server_calls;
  /// The actual computation; runs at runnable completion (zero sim-time).
  std::function<void(RunnableContext&)> behavior;
};

struct ComponentType {
  std::string name;
  std::vector<Port> ports;
  std::vector<Runnable> runnables;
};

/// Port `name` of `type`, or null.
[[nodiscard]] const Port* find_port(const ComponentType& type,
                                    std::string_view name);
/// Data element `name` of `iface`, or null.
[[nodiscard]] const DataElement* find_element(const PortInterface& iface,
                                              std::string_view name);
/// Operation `name` of `iface`, or null.
[[nodiscard]] const Operation* find_operation(const PortInterface& iface,
                                              std::string_view name);

struct ComponentInstance {
  std::string name;
  std::string type;
};

/// Assembly connector: provided port -> required port. Fan-out is expressed
/// with several connectors sharing the same source.
struct Connector {
  std::string from_instance;
  std::string from_port;
  std::string to_instance;
  std::string to_port;
};

/// A self-contained VFB system model. Mirrors what the AUTOSAR software
/// component template carries, as a typed API instead of ARXML.
class Composition {
 public:
  using OperationHandler = std::function<std::uint64_t(std::uint64_t)>;

  void add_interface(PortInterface iface);
  void add_type(ComponentType type);
  void add_instance(ComponentInstance instance);
  void add_connector(Connector connector);

  /// Register the implementation of a client-server operation for a type.
  void set_operation_handler(std::string_view type, std::string_view port,
                             std::string_view operation,
                             OperationHandler handler);

  /// Bind a rich-component contract (§3) to an instance. Flow names follow
  /// the validator convention: "port" (every element of the port) or
  /// "port.element". The bound contracts are the only contracts there are:
  /// validation::validate checks them statically (V7–V15) AND vfb::System
  /// compiles them into online monitors / rv::MonitorRegistry — one
  /// specification, two enforcement points. Re-binding an instance replaces
  /// its contract.
  void bind_contract(std::string instance, contracts::Contract contract);

  // --- Lookups (throw on unknown names) ------------------------------------
  const ComponentInstance& instance(std::string_view name) const;
  const DataElement& element_of(std::string_view instance,
                                std::string_view port,
                                std::string_view element) const;
  const OperationHandler* operation_handler(std::string_view type,
                                            std::string_view port,
                                            std::string_view operation) const;

  // --- Non-throwing finders (used by the static validator) -----------------
  const PortInterface* find_interface(std::string_view name) const;
  const ComponentType* find_type(std::string_view name) const;
  const ComponentInstance* find_instance(std::string_view name) const;

  const std::vector<ComponentInstance>& instances() const {
    return instances_;
  }
  const std::vector<Connector>& connectors() const { return connectors_; }
  const std::map<std::string, contracts::Contract, std::less<>>&
  bound_contracts() const {
    return contracts_;
  }
  const std::map<std::string, PortInterface, std::less<>>& interfaces() const {
    return interfaces_;
  }
  const std::map<std::string, ComponentType, std::less<>>& types() const {
    return types_;
  }

  /// The first connector feeding required port (instance, port), or null.
  const Connector* connection_to(std::string_view instance,
                                 std::string_view port) const;

 private:
  std::map<std::string, PortInterface, std::less<>> interfaces_;
  std::map<std::string, ComponentType, std::less<>> types_;
  std::vector<ComponentInstance> instances_;
  std::vector<Connector> connectors_;
  // The name indexes add_instance and add_connector fill hold vector
  // indices, not pointers, so a copied Composition stays valid.
  /// Instance name -> its index in instances_.
  std::map<std::string, std::size_t, std::less<>> instance_of_;
  /// Required instance -> port -> index of its first feeding connector.
  std::map<std::string, std::map<std::string, std::size_t, std::less<>>,
           std::less<>>
      feed_of_;
  std::map<std::string, OperationHandler, std::less<>> handlers_;
  std::map<std::string, contracts::Contract, std::less<>> contracts_;
};

}  // namespace orte::vfb
