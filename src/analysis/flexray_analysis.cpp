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

}  // namespace orte::analysis
