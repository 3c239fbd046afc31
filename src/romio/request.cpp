#include "romio/request.hpp"

#include <algorithm>

#include "fault/wire.hpp"
#include "util/assert.hpp"

namespace colcom::romio {

FlatRequest::FlatRequest(std::vector<pfs::ByteExtent> extents)
    : extents_(std::move(extents)) {
  buf_displ_.reserve(extents_.size());
  std::uint64_t pos = 0;
  std::uint64_t prev_end = 0;
  for (std::size_t i = 0; i < extents_.size(); ++i) {
    COLCOM_EXPECT_MSG(extents_[i].length > 0, "zero-length extent");
    COLCOM_EXPECT_MSG(i == 0 || extents_[i].offset >= prev_end,
                      "extents must be sorted and non-overlapping");
    prev_end = extents_[i].end();
    buf_displ_.push_back(pos);
    pos += extents_[i].length;
  }
  total_ = pos;
}

FlatRequest FlatRequest::from_datatype(std::uint64_t file_base,
                                       const mpi::Datatype& type,
                                       std::uint64_t count) {
  std::vector<pfs::ByteExtent> ext;
  for (const auto& s : type.flatten(count)) {
    ext.push_back(pfs::ByteExtent{file_base + s.disp, s.length});
  }
  return FlatRequest(std::move(ext));
}

std::uint64_t FlatRequest::min_offset() const {
  COLCOM_EXPECT(!empty());
  return extents_.front().offset;
}

std::uint64_t FlatRequest::max_offset() const {
  COLCOM_EXPECT(!empty());
  return extents_.back().end();
}

std::vector<Piece> FlatRequest::intersect(std::uint64_t lo,
                                          std::uint64_t hi) const {
  std::vector<Piece> out;
  if (lo >= hi || extents_.empty()) return out;
  // First extent whose end is past lo.
  auto it = std::lower_bound(
      extents_.begin(), extents_.end(), lo,
      [](const pfs::ByteExtent& e, std::uint64_t v) { return e.end() <= v; });
  for (; it != extents_.end() && it->offset < hi; ++it) {
    const std::uint64_t cl = std::max(lo, it->offset);
    const std::uint64_t ch = std::min(hi, it->end());
    if (cl >= ch) continue;
    const auto idx = static_cast<std::size_t>(it - extents_.begin());
    out.push_back(Piece{cl, ch - cl, buf_displ_[idx] + (cl - it->offset)});
  }
  return out;
}

std::uint64_t FlatRequest::bytes_in(std::uint64_t lo, std::uint64_t hi) const {
  std::uint64_t n = 0;
  for (const auto& p : intersect(lo, hi)) n += p.len;
  return n;
}

std::vector<std::byte> FlatRequest::serialize() const {
  std::vector<std::byte> wire;
  wire.reserve(8 + extents_.size() * 16);
  fault::WireWriter w(wire);
  w.put<std::uint64_t>(extents_.size());
  for (const auto& e : extents_) w.put(e.offset).put(e.length);
  return wire;
}

FlatRequest FlatRequest::shifted(std::int64_t delta) const {
  std::vector<pfs::ByteExtent> ext = extents_;
  for (auto& e : ext) {
    COLCOM_EXPECT_MSG(delta >= 0 || e.offset >=
                          static_cast<std::uint64_t>(-delta),
                      "shift would move an extent before offset 0");
    e.offset = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(e.offset) + delta);
  }
  return FlatRequest(std::move(ext));
}

FlatRequest FlatRequest::deserialize(std::span<const std::byte> wire) {
  fault::WireReader r(wire, fault::Layer::romio, "request image");
  std::vector<pfs::ByteExtent> ext(r.count(16, "extent"));
  std::uint64_t prev_end = 0;
  for (auto& e : ext) {
    e.offset = r.get<std::uint64_t>();
    e.length = r.get<std::uint64_t>();
    if (e.length == 0 || e.offset < prev_end || e.length > ~e.offset) {
      r.fail("extents must be non-empty, sorted and non-overlapping");
    }
    prev_end = e.end();
  }
  r.done();
  return FlatRequest(std::move(ext));
}

}  // namespace colcom::romio
