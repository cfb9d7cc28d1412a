#include "vfb/model.hpp"

#include <stdexcept>

namespace orte::vfb {

namespace {
[[noreturn]] void fail(const std::string& msg) {
  throw std::invalid_argument("Composition: " + msg);
}
std::string key3(std::string_view a, std::string_view b, std::string_view c) {
  std::string k;
  k.reserve(a.size() + b.size() + c.size() + 2);
  k.append(a).push_back('.');
  k.append(b).push_back('.');
  k.append(c);
  return k;
}
}  // namespace

bool is_write(DataAccessKind kind) {
  return kind == DataAccessKind::kImplicitWrite ||
         kind == DataAccessKind::kExplicitWrite;
}

const Port* find_port(const ComponentType& type, std::string_view name) {
  for (const auto& p : type.ports) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

const DataElement* find_element(const PortInterface& iface,
                                std::string_view name) {
  for (const auto& e : iface.elements) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

const Operation* find_operation(const PortInterface& iface,
                                std::string_view name) {
  for (const auto& o : iface.operations) {
    if (o.name == name) return &o;
  }
  return nullptr;
}

void Composition::add_interface(PortInterface iface) {
  const std::string name = iface.name;
  if (!interfaces_.emplace(name, std::move(iface)).second) {
    fail("duplicate interface " + name);
  }
}

void Composition::add_type(ComponentType type) {
  const std::string name = type.name;
  if (!types_.emplace(name, std::move(type)).second) {
    fail("duplicate component type " + name);
  }
}

void Composition::add_instance(ComponentInstance instance) {
  if (!instance_of_.try_emplace(instance.name, instances_.size()).second) {
    fail("duplicate instance " + instance.name);
  }
  instances_.push_back(std::move(instance));
}

void Composition::add_connector(Connector connector) {
  feed_of_[connector.to_instance].try_emplace(connector.to_port,
                                              connectors_.size());
  connectors_.push_back(std::move(connector));
}

void Composition::set_operation_handler(std::string_view type,
                                        std::string_view port,
                                        std::string_view operation,
                                        OperationHandler handler) {
  handlers_[key3(type, port, operation)] = std::move(handler);
}

void Composition::bind_contract(std::string instance,
                                contracts::Contract contract) {
  contracts_[std::move(instance)] = std::move(contract);
}

const ComponentInstance& Composition::instance(std::string_view name) const {
  const ComponentInstance* i = find_instance(name);
  if (i == nullptr) fail("unknown instance " + std::string(name));
  return *i;
}

const DataElement& Composition::element_of(std::string_view inst,
                                           std::string_view port,
                                           std::string_view element) const {
  const ComponentType* t = find_type(instance(inst).type);
  const Port* p = t == nullptr ? nullptr : find_port(*t, port);
  const PortInterface* iface =
      p == nullptr ? nullptr : find_interface(p->interface);
  const DataElement* e =
      iface == nullptr ? nullptr : find_element(*iface, element);
  if (e != nullptr) return *e;
  fail("instance " + std::string(inst) + " has no element " +
       std::string(port) + "." + std::string(element));
}

const Composition::OperationHandler* Composition::operation_handler(
    std::string_view type, std::string_view port,
    std::string_view operation) const {
  auto it = handlers_.find(key3(type, port, operation));
  return it == handlers_.end() ? nullptr : &it->second;
}

const Connector* Composition::connection_to(std::string_view instance,
                                            std::string_view port) const {
  const auto it = feed_of_.find(instance);
  if (it == feed_of_.end()) return nullptr;
  const auto pit = it->second.find(port);
  return pit == it->second.end() ? nullptr : &connectors_[pit->second];
}

const PortInterface* Composition::find_interface(std::string_view name) const {
  auto it = interfaces_.find(name);
  return it == interfaces_.end() ? nullptr : &it->second;
}

const ComponentType* Composition::find_type(std::string_view name) const {
  auto it = types_.find(name);
  return it == types_.end() ? nullptr : &it->second;
}

const ComponentInstance* Composition::find_instance(
    std::string_view name) const {
  const auto it = instance_of_.find(name);
  return it == instance_of_.end() ? nullptr : &instances_[it->second];
}

}  // namespace orte::vfb
