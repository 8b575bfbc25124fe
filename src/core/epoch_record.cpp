#include "core/epoch_record.h"

#include <stdexcept>

namespace wiscape::core {

trace::metric metric_from_byte(std::uint8_t b) {
  if (b > static_cast<std::uint8_t>(trace::metric::uplink_throughput_bps)) {
    throw std::invalid_argument("bad metric byte " + std::to_string(b));
  }
  return static_cast<trace::metric>(b);
}

void put_epoch_record(std::string& out, const epoch_record& r) {
  put_u64(out, r.seq);
  put_i32(out, r.zone.ix);
  put_i32(out, r.zone.iy);
  put_u8(out, static_cast<std::uint8_t>(r.metric));
  put_f64(out, r.epoch_start_s);
  put_f64(out, r.mean);
  put_f64(out, r.stddev);
  put_u64(out, r.samples);
  put_str16(out, r.network);
}

void get_epoch_record(byte_reader& in, epoch_record& r) {
  in.need(min_epoch_record_bytes - 2, "epoch fixed fields");
  r.seq = in.u64_raw();
  r.zone.ix = in.i32_raw();
  r.zone.iy = in.i32_raw();
  r.metric = metric_from_byte(in.u8_raw());
  r.epoch_start_s = in.f64_raw();
  r.mean = in.f64_raw();
  r.stddev = in.f64_raw();
  r.samples = in.u64_raw();
  r.network = in.str16("epoch.network");
}

}  // namespace wiscape::core
