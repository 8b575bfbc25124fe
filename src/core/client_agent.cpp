#include "core/client_agent.h"

namespace wiscape::core {

std::optional<trace::measurement_record> client_agent::step(
    const mobility::gps_fix& fix, std::size_t active_clients_in_zone) {
  const auto task = coordinator_->checkin(fix.pos, fix.time_s, network_index_,
                                          active_clients_in_zone, client_id_);
  if (!task) return std::nullopt;

  trace::measurement_record rec;
  switch (task->kind) {
    case trace::probe_kind::tcp_download:
      rec = engine_->tcp_probe(task->network_index, fix);
      break;
    case trace::probe_kind::udp_burst:
      rec = engine_->udp_probe(task->network_index, fix);
      break;
    case trace::probe_kind::ping:
      rec = engine_->ping_probe(task->network_index, fix);
      break;
    case trace::probe_kind::udp_uplink:
      rec = engine_->udp_uplink_probe(task->network_index, fix);
      break;
  }
  ++executed_;
  coordinator_->report(rec);
  return rec;
}

}  // namespace wiscape::core
