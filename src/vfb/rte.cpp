#include "vfb/rte.hpp"

#include <stdexcept>

namespace orte::vfb {

namespace {
/// Element name carried by a receiver key ("instance.port.element").
std::string element_of_key(const std::string& receiver_key) {
  const auto pos = receiver_key.rfind('.');
  return pos == std::string::npos ? receiver_key
                                  : receiver_key.substr(pos + 1);
}
}  // namespace

// --- RunnableContext ---------------------------------------------------------

std::size_t RunnableContext::access_index(std::string_view port,
                                          std::string_view element,
                                          std::string_view what) const {
  const auto& accesses = binding_->runnable->accesses;
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    if (accesses[i].port == port && accesses[i].element == element) return i;
  }
  throw std::logic_error("undeclared " + std::string(what) +
                         " access: " + binding_->runnable->name + " " +
                         std::string(port) + "." + std::string(element));
}

std::uint64_t RunnableContext::read(std::string_view port,
                                    std::string_view element) {
  ++rte_->reads_;
  return rte_->context_read(*binding_, access_index(port, element, "read"));
}

void RunnableContext::write(std::string_view port, std::string_view element,
                            std::uint64_t value) {
  ++rte_->writes_;
  rte_->context_write(*binding_, access_index(port, element, "write"), value);
}

std::uint64_t RunnableContext::call(std::string_view port,
                                    std::string_view operation,
                                    std::uint64_t argument) {
  return rte_->context_call(*binding_, port, operation, argument);
}

sim::Time RunnableContext::now() const { return rte_->kernel_.now(); }

// --- Rte ----------------------------------------------------------------------

Rte::Rte(sim::Kernel& kernel, sim::Trace& trace,
         const Composition& composition, std::string ecu_name)
    : kernel_(kernel),
      trace_(trace),
      composition_(composition),
      ecu_name_(std::move(ecu_name)),
      cat_{trace.intern_category("rte.runnable"),
           trace.intern_category("rte.write"),
           trace.intern_category("rte.deliver"),
           trace.intern_category("rte.queue_overflow"),
           trace.intern_category("rte.fault_drop"),
           trace.intern_category("rte.quarantine_drop"),
           trace.intern_category("rte.call")} {}

std::string Rte::key(std::string_view instance, std::string_view port,
                     std::string_view element) {
  std::string k;
  k.reserve(instance.size() + port.size() + element.size() + 2);
  k.append(instance).push_back('.');
  k.append(port).push_back('.');
  k.append(element);
  return k;
}

Rte::Slot& Rte::slot(const std::string& receiver_key, bool queued,
                     std::uint64_t init) {
  const auto [it, inserted] = slots_.try_emplace(receiver_key);
  Slot& entry = it->second;
  if (inserted) {
    entry.element = element_of_key(receiver_key);
    entry.key_id = trace_.intern_subject(receiver_key);
  }
  entry.queued = queued;
  entry.value = init;
  return entry;
}

Rte::Sender& Rte::sender(const std::string& sender_key) {
  const auto [it, inserted] = senders_.try_emplace(sender_key);
  Sender& entry = it->second;
  if (inserted) {
    entry.key = &it->first;
    entry.key_id = trace_.intern_subject(sender_key);
    entry.owner = &component(
        std::string_view(sender_key).substr(0, sender_key.find('.')));
  }
  return entry;
}

Rte::Component& Rte::component(std::string_view instance) {
  auto it = components_.find(instance);
  if (it == components_.end()) {
    it = components_.emplace(std::string(instance), Component{}).first;
    it->second.name = &it->first;
    it->second.id = trace_.intern_subject(instance);
  }
  return it->second;
}

void Rte::add_local_route(const std::string& sender_key,
                          const std::string& receiver_key, bool queued,
                          std::uint64_t init) {
  Slot& receiver = slot(receiver_key, queued, init);
  sender(sender_key).receivers.push_back(&receiver);
}

void Rte::add_remote_route(const std::string& sender_key, bsw::Com& com,
                           std::string signal) {
  sender(sender_key).remotes.push_back(RemoteRoute{&com, std::move(signal)});
}

void Rte::add_remote_receiver(const std::string& receiver_key, bsw::Com& com,
                              const std::string& signal, bool queued,
                              std::uint64_t init) {
  Slot* receiver = &slot(receiver_key, queued, init);
  com.on_signal(signal,
                [this, receiver](std::uint64_t value) {
                  deliver(*receiver, value);
                });
}

void Rte::deliver(const std::string& receiver_key, std::uint64_t value) {
  auto it = slots_.find(receiver_key);
  if (it == slots_.end()) {
    throw std::logic_error("Rte::deliver to unknown slot " + receiver_key);
  }
  deliver(it->second, value);
}

void Rte::deliver(Slot& slot, std::uint64_t value) {
  if (slot.queued) {
    // Bounded AUTOSAR-style queue; slot.value keeps the init (queued slots
    // are read through the queue, never last-is-best).
    if (slot.queue.size() >= kDefaultQueueLength) {
      ++overflows_;
      // Detail carries the element name so the record correlates with
      // element-level diagnostics (validator rules V3/V4) without parsing
      // the receiver key.
      trace_.emit(kernel_.now(), cat_.queue_overflow, slot.key_id,
                  static_cast<std::int64_t>(value), slot.element);
      return;  // rejected (E_LIMIT): no data-received activation
    }
    slot.queue.push_back(value);
  } else {
    slot.value = value;
  }
  slot.last_update = kernel_.now();
  // Receiver-side observation point: the value as it ARRIVED, after any bus
  // transport (and any injected corruption en route). Sender-side monitors
  // watch "rte.write"; assumption-side range monitors watch this record, so
  // in-transit damage is observable even when the producer wrote in-spec.
  trace_.emit(kernel_.now(), cat_.deliver, slot.key_id,
              static_cast<std::int64_t>(value), slot.element);
  for (const auto& cb : slot.hooks) cb();
}

void Rte::on_update(const std::string& receiver_key,
                    std::function<void()> cb) {
  auto it = slots_.find(receiver_key);
  if (it != slots_.end()) it->second.hooks.push_back(std::move(cb));
}

Rte::Binding& Rte::bind(const std::string& instance,
                        const Runnable& runnable) {
  Binding& binding = bindings_.emplace_back();
  binding.component = &component(instance);
  binding.runnable = &runnable;
  const auto& accesses = runnable.accesses;
  binding.accesses.resize(accesses.size());
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    const DataAccess& acc = accesses[i];
    Binding::Access& bound = binding.accesses[i];
    const std::string k = key(instance, acc.port, acc.element);
    const auto sit = slots_.find(k);
    bound.slot = sit == slots_.end() ? nullptr : &sit->second;
    bound.sender = &sender(k);
    bound.init = composition_.element_of(instance, acc.port, acc.element).init;
    bound.snapshot = bound.init;
    while (accesses[bound.first].port != acc.port ||
           accesses[bound.first].element != acc.element) {
      ++bound.first;
    }
  }
  return binding;
}

void Rte::capture_implicit(Binding& binding) {
  const auto& accesses = binding.runnable->accesses;
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    Binding::Access& bound = binding.accesses[i];
    if (accesses[i].kind == DataAccessKind::kImplicitRead) {
      binding.accesses[bound.first].snapshot =
          bound.slot != nullptr ? bound.slot->value : bound.init;
    }
    bound.pending = false;
  }
}

void Rte::run_behavior(Binding& binding) {
  const Runnable& runnable = *binding.runnable;
  trace_.emit(kernel_.now(), cat_.runnable, binding.component->id, 0,
              runnable.name);
  if (runnable.behavior) {
    RunnableContext ctx(*this, binding);
    runnable.behavior(ctx);
  }
  // Publish implicit writes in declaration order.
  for (std::size_t i = 0; i < runnable.accesses.size(); ++i) {
    if (runnable.accesses[i].kind != DataAccessKind::kImplicitWrite) continue;
    const Binding::Access& box =
        binding.accesses[binding.accesses[i].first];
    if (box.pending) publish(*binding.accesses[i].sender, box.outbox);
  }
  for (auto& bound : binding.accesses) bound.pending = false;
}

std::uint64_t Rte::context_read(Binding& binding, std::size_t index) {
  Binding::Access& bound = binding.accesses[index];
  if (binding.runnable->accesses[index].kind ==
      DataAccessKind::kImplicitRead) {
    return bound.snapshot;
  }
  if (bound.slot == nullptr) return bound.init;
  Slot& slot = *bound.slot;
  if (slot.queued) {
    if (slot.queue.empty()) return bound.init;
    const std::uint64_t v = slot.queue.front();
    slot.queue.pop_front();
    return v;
  }
  return slot.value;
}

void Rte::context_write(Binding& binding, std::size_t index,
                        std::uint64_t value) {
  Binding::Access& bound = binding.accesses[index];
  if (binding.runnable->accesses[index].kind ==
      DataAccessKind::kImplicitWrite) {
    bound.outbox = value;
    bound.pending = true;
    return;
  }
  publish(*bound.sender, value);
}

std::uint64_t Rte::context_call(const Binding& binding,
                                std::string_view port,
                                std::string_view operation,
                                std::uint64_t argument) {
  ++calls_;
  const std::string& instance = *binding.component->name;
  const Connector* conn = composition_.connection_to(instance, port);
  if (conn == nullptr) {
    throw std::logic_error("client-server port not connected: " +
                           instance + "." + std::string(port));
  }
  const auto& server_type = composition_.instance(conn->from_instance).type;
  const auto* handler = composition_.operation_handler(
      server_type, conn->from_port, operation);
  if (handler == nullptr) {
    throw std::logic_error("no handler for operation " +
                           std::string(operation) + " on " + server_type);
  }
  trace_.emit(kernel_.now(), cat_.call, binding.component->id, 0, operation);
  return (*handler)(argument);
}

void Rte::quarantine(const std::string& instance) {
  component(instance).quarantined = true;
}

void Rte::release(const std::string& instance) {
  auto it = components_.find(instance);
  if (it != components_.end()) it->second.quarantined = false;
}

bool Rte::is_quarantined(std::string_view instance) const {
  auto it = components_.find(instance);
  return it != components_.end() && it->second.quarantined;
}

void Rte::publish(Sender& sender, std::uint64_t value) {
  if (write_interceptor_ && !write_interceptor_(*sender.key, value)) {
    ++intercepted_drops_;
    trace_.emit(kernel_.now(), cat_.fault_drop, sender.key_id,
                static_cast<std::int64_t>(value));
    return;
  }
  if (sender.owner->quarantined) {
    ++quarantined_drops_;
    trace_.emit(kernel_.now(), cat_.quarantine_drop, sender.key_id,
                static_cast<std::int64_t>(value));
    return;
  }
  trace_.emit(kernel_.now(), cat_.write, sender.key_id,
              static_cast<std::int64_t>(value));
  for (Slot* receiver : sender.receivers) deliver(*receiver, value);
  for (const auto& route : sender.remotes) {
    route.com->send_signal(route.signal, value);
  }
}

std::uint64_t Rte::peek(const std::string& receiver_key) const {
  auto it = slots_.find(receiver_key);
  if (it == slots_.end()) {
    throw std::invalid_argument("Rte::peek: unknown slot " + receiver_key);
  }
  const Slot& slot = it->second;
  if (slot.queued) {
    // Next value a reader would pop; the init value when the queue is empty.
    return slot.queue.empty() ? slot.value : slot.queue.front();
  }
  return slot.value;
}

}  // namespace orte::vfb
