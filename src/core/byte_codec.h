// Little-endian byte codec of every binary format: wire v3 frames, the
// frozen-epoch record (core/epoch_record.h), the WAL and the snapshot.
//
// Writers append to a std::string or proto::reply_buffer through byte
// shifts (host-endian independent); doubles travel as raw IEEE-754 bits.
// byte_reader is a bounds-checked cursor: every read validates the bytes
// left first and throws std::invalid_argument naming the field, so hostile
// input surfaces as a typed error, never as a read past the buffer.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>

namespace wiscape::core {

template <typename Sink>
void put_u8(Sink& out, std::uint8_t v) {
  const char b = static_cast<char>(v);
  out.append(std::string_view(&b, 1));
}

template <typename Sink>
void put_u16(Sink& out, std::uint16_t v) {
  const char b[2] = {static_cast<char>(v & 0xff), static_cast<char>(v >> 8)};
  out.append(std::string_view(b, 2));
}

template <typename Sink>
void put_u32(Sink& out, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.append(std::string_view(b, 4));
}

template <typename Sink>
void put_u64(Sink& out, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out.append(std::string_view(b, 8));
}

template <typename Sink>
void put_i32(Sink& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

template <typename Sink>
void put_f64(Sink& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// u16 length + bytes; strings longer than 0xffff bytes are clipped.
template <typename Sink>
void put_str16(Sink& out, std::string_view s) {
  const std::size_t n = std::min<std::size_t>(s.size(), 0xffff);
  put_u16(out, static_cast<std::uint16_t>(n));
  out.append(s.substr(0, n));
}

struct byte_reader {
  std::string_view buf;
  std::size_t pos = 0;

  std::size_t left() const noexcept { return buf.size() - pos; }
  bool done() const noexcept { return pos == buf.size(); }

  [[noreturn]] static void underrun(const char* what) {
    throw std::invalid_argument(std::string("binary frame truncated at ") +
                                what);
  }

  /// One bounds check covering the next `n` bytes. The _raw loads below
  /// skip their per-field check; callers must have reserved the span here
  /// first, which turns a fixed-width struct prefix into a single branch
  /// followed by straight-line loads.
  void need(std::size_t n, const char* what) const {
    if (left() < n) underrun(what);
  }

  template <typename T>
  T load_le() noexcept {
    T v;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, buf.data() + pos, sizeof(T));
    } else {
      v = 0;
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        v = static_cast<T>(
            v | static_cast<T>(static_cast<unsigned char>(buf[pos + i]))
                    << (8 * i));
      }
    }
    pos += sizeof(T);
    return v;
  }

  std::uint8_t u8_raw() noexcept {
    return static_cast<std::uint8_t>(buf[pos++]);
  }
  std::uint32_t u32_raw() noexcept { return load_le<std::uint32_t>(); }
  std::uint64_t u64_raw() noexcept { return load_le<std::uint64_t>(); }
  std::int32_t i32_raw() noexcept {
    return static_cast<std::int32_t>(load_le<std::uint32_t>());
  }
  double f64_raw() noexcept {
    return std::bit_cast<double>(load_le<std::uint64_t>());
  }

  std::uint8_t u8(const char* what) {
    need(1, what);
    return u8_raw();
  }
  std::uint16_t u16(const char* what) {
    need(2, what);
    return load_le<std::uint16_t>();
  }
  std::uint32_t u32(const char* what) {
    need(4, what);
    return u32_raw();
  }
  std::uint64_t u64(const char* what) {
    need(8, what);
    return u64_raw();
  }
  std::string_view str16(const char* what) {
    const std::uint16_t n = u16(what);
    if (left() < n) underrun(what);
    const std::string_view s = buf.substr(pos, n);
    pos += n;
    return s;
  }
};

/// FNV-1a over `s`: cheap, dependency-free, and it changes under any
/// single-byte edit (each step is a bijection of the running hash), which
/// is what tells "bytes the writer finished" from "bytes a crash cut or
/// rot flipped" in the WAL and the snapshot.
inline std::uint32_t fnv1a32(std::string_view s) noexcept {
  std::uint32_t h = 2166136261u;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 16777619u;
  }
  return h;
}

}  // namespace wiscape::core
