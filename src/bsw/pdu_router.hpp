// PDU Router: gateway routing between bus controllers (Figure 1's "Gateway"
// block). Forwards matching frames from one network to another, identifier
// unchanged, after a configurable processing latency — the store-and-forward
// hop that the federated architecture pays for every inter-DAS signal
// (experiment E7).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "sim/kernel.hpp"
#include "sim/trace.hpp"

namespace orte::bsw {

struct GatewayRoute {
  std::uint32_t match_id = 0;
  sim::Duration processing = sim::microseconds(200);
};

class PduRouter {
 public:
  PduRouter(sim::Kernel& kernel, sim::Trace& trace, std::string name);

  /// Forward frames with `route.match_id` arriving at `from` onto `to`.
  void add_route(net::Controller& from, net::Controller& to,
                 GatewayRoute route);

  [[nodiscard]] std::uint64_t frames_forwarded() const { return forwarded_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  sim::Kernel& kernel_;
  sim::Trace& trace_;
  std::string name_;
  std::uint64_t forwarded_ = 0;
};

}  // namespace orte::bsw
