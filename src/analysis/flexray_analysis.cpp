#include "analysis/flexray_analysis.hpp"

namespace orte::analysis {

FlexRayStaticLatency flexray_static_latency(
    const flexray::FlexRayConfig& cfg) {
  FlexRayStaticLatency lat;
  const Duration slot_len = flexray::FlexRayBus::slot_length(cfg);
  const Duration cycle = flexray::FlexRayBus::cycle_length(cfg);
  lat.best = slot_len;                 // written right at slot start
  lat.worst = cycle + slot_len;        // just missed this cycle's slot
  lat.write_to_delivery_jitter = lat.worst - lat.best;
  return lat;
}

std::optional<int> flexray_dynamic_cycles(std::size_t minislots_total,
                                          std::size_t hp_demand,
                                          std::size_t minislots_needed) {
  if (minislots_needed > minislots_total) return std::nullopt;
  if (hp_demand + minislots_needed <= minislots_total) return 1;
  // Higher-priority demand alone saturates every cycle: no bound.
  if (hp_demand >= minislots_total) return std::nullopt;
  // Each cycle serves (total - hp) minislots of backlog in priority order; a
  // frame needing `minislots_needed` waits until the residual fits.
  const std::size_t per_cycle = minislots_total - hp_demand;
  std::size_t backlog = hp_demand + minislots_needed;
  int cycles = 0;
  while (backlog > minislots_total) {
    backlog -= per_cycle;
    ++cycles;
    if (cycles > 1000) return std::nullopt;  // defensive
  }
  return cycles + 1;
}

}  // namespace orte::analysis
