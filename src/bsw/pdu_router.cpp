#include "bsw/pdu_router.hpp"

namespace orte::bsw {

PduRouter::PduRouter(sim::Kernel& kernel, sim::Trace& trace, std::string name)
    : kernel_(kernel), trace_(trace), name_(std::move(name)) {}

void PduRouter::add_route(net::Controller& from, net::Controller& to,
                          GatewayRoute route) {
  net::Controller* out = &to;
  from.on_receive([this, out, route](const net::Frame& frame) {
    if (frame.id != route.match_id) return;
    net::Frame copy = frame;
    kernel_.schedule_in(route.processing,
                        [this, out, copy]() mutable {
                          copy.enqueued_at = kernel_.now();
                          ++forwarded_;
                          trace_.emit(kernel_.now(), "gw.forward", name_,
                                      copy.id);
                          out->send(std::move(copy));
                        },
                        sim::EventOrder::kSoftware);
  });
}

}  // namespace orte::bsw
