#include "bsw/watchdog.hpp"

#include <stdexcept>

namespace orte::bsw {

WatchdogManager::WatchdogManager(sim::Kernel& kernel, sim::Trace& trace,
                                 sim::Duration supervision_cycle)
    : kernel_(kernel), trace_(trace), cycle_len_(supervision_cycle) {
  if (supervision_cycle <= 0) {
    throw std::invalid_argument("supervision cycle must be positive");
  }
}

void WatchdogManager::supervise(SupervisionConfig cfg) {
  const std::string name = cfg.entity;
  Entity e;
  e.cfg = std::move(cfg);
  if (!entities_.emplace(name, std::move(e)).second) {
    throw std::invalid_argument("duplicate supervised entity: " + name);
  }
}

void WatchdogManager::checkpoint(std::string_view entity) {
  auto it = entities_.find(entity);
  if (it == entities_.end()) {
    throw std::invalid_argument("checkpoint from unsupervised entity");
  }
  ++it->second.count;
}

void WatchdogManager::start() {
  if (started_) throw std::logic_error("WatchdogManager::start called twice");
  started_ = true;
  kernel_.schedule_periodic(kernel_.now() + cycle_len_, cycle_len_,
                            [this] { cycle(); }, sim::EventOrder::kObserver);
}

void WatchdogManager::cycle() {
  for (auto& [name, e] : entities_) {
    if (e.count >= e.cfg.min_indications) {
      e.failed_cycles = 0;
    } else {
      ++e.failed_cycles;
      if (e.failed_cycles > e.cfg.failed_cycles_tolerance && !e.expired) {
        e.expired = true;
        ++violations_;
        trace_.emit(kernel_.now(), "wdg.violation", name, e.count);
        if (violation_cb_) violation_cb_(name, e.count);
      }
    }
    e.count = 0;
  }
}

}  // namespace orte::bsw
