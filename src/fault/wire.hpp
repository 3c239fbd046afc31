// The one codec for every byte image one party writes and another reads
// back: plan-exchange offset lists and plans, parked mid-analysis state,
// checkpoints and their slots, dataset headers. WireWriter appends
// little-endian words; WireReader is its bounded inverse. Every read is
// checked against the bytes left, every count against the bytes its
// elements need (by division, so it cannot wrap) before anything is
// allocated, and a malformed image throws
// fault::Error{layer, data_corrupt, "<image>: <why>"}.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fault/fault.hpp"

namespace colcom::fault {

class WireWriter {
 public:
  explicit WireWriter(std::vector<std::byte>& out) : out_(&out) {}

  template <std::unsigned_integral T>
  WireWriter& put(T v) {
    std::byte le[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      le[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
    }
    return bytes(le);
  }

  WireWriter& bytes(std::span<const std::byte> b) {
    out_->insert(out_->end(), b.begin(), b.end());
    return *this;
  }

 private:
  std::vector<std::byte>* out_;
};

class WireReader {
 public:
  /// Decodes `in`; errors name `image` and come from `layer`.
  WireReader(std::span<const std::byte> in, Layer layer, const char* image)
      : in_(in), layer_(layer), image_(image) {}

  template <std::unsigned_integral T>
  T get() {
    T v = 0;
    const auto b = bytes(sizeof(T));
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(b[i]) << (8 * i));
    }
    return v;
  }

  /// A u64 word whose field holds at most `max` (a 0/1 flag, an int).
  std::uint64_t at_most(std::uint64_t max, const char* what) {
    const auto v = get<std::uint64_t>();
    if (v > max) fail(std::string(what) + " out of range");
    return v;
  }

  /// A count stored as a T, of elements taking at least `min_bytes_each`.
  template <std::unsigned_integral T = std::uint64_t>
  std::uint64_t count(std::uint64_t min_bytes_each, const char* what) {
    const std::uint64_t n = get<T>();
    if (n > left() / min_bytes_each) {
      fail(std::string(what) + " count " + std::to_string(n) + " too large");
    }
    return n;
  }

  std::span<const std::byte> bytes(std::uint64_t n) {
    if (n > left()) fail("truncated");
    const auto out = in_.subspan(pos_, static_cast<std::size_t>(n));
    pos_ += out.size();
    return out;
  }

  /// Ends a decode that must consume the whole image.
  void done() const {
    if (left() != 0) fail("trailing bytes");
  }

  [[noreturn]] void fail(const std::string& why) const {
    throw Error(layer_, Kind::data_corrupt, std::string(image_) + ": " + why);
  }

 private:
  std::size_t left() const { return in_.size() - pos_; }

  std::span<const std::byte> in_;
  std::size_t pos_ = 0;
  Layer layer_;
  const char* image_;
};

}  // namespace colcom::fault
