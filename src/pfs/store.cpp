#include "pfs/store.hpp"

#include <algorithm>
#include <new>

namespace colcom::pfs {

void MemStore::reserve(std::uint64_t capacity) {
  if (capacity == 0) return;
  std::unique_ptr<std::byte[], Free> fresh(
      static_cast<std::byte*>(std::calloc(capacity, 1)));
  if (fresh == nullptr) throw std::bad_alloc();
  if (size_ > 0) std::memcpy(fresh.get(), data_.get(), size_);
  data_ = std::move(fresh);
  capacity_ = capacity;
}

void OverlayStore::read(std::uint64_t offset,
                        std::span<std::byte> dst) const {
  COLCOM_EXPECT(offset + dst.size() <= size());
  // Start from base content (zero-fill past its end), then patch overlays.
  const std::uint64_t base_size = base_->size();
  if (offset < base_size) {
    const std::uint64_t n = std::min<std::uint64_t>(dst.size(),
                                                    base_size - offset);
    base_->read(offset, dst.subspan(0, n));
    if (n < dst.size()) {
      std::fill(dst.begin() + static_cast<std::ptrdiff_t>(n), dst.end(),
                std::byte{0});
    }
  } else {
    std::fill(dst.begin(), dst.end(), std::byte{0});
  }

  const std::uint64_t lo = offset;
  const std::uint64_t hi = offset + dst.size();
  auto it = overlay_.upper_bound(lo);
  if (it != overlay_.begin()) --it;
  for (; it != overlay_.end() && it->first < hi; ++it) {
    const std::uint64_t ext_lo = it->first;
    const std::uint64_t ext_hi = ext_lo + it->second.size();
    const std::uint64_t cl = std::max(lo, ext_lo);
    const std::uint64_t ch = std::min(hi, ext_hi);
    if (cl >= ch) continue;
    std::memcpy(dst.data() + (cl - lo), it->second.data() + (cl - ext_lo),
                ch - cl);
  }
}

void OverlayStore::write(std::uint64_t offset,
                         std::span<const std::byte> src) {
  if (src.empty()) return;
  const std::uint64_t lo = offset;
  const std::uint64_t hi = offset + src.size();
  end_ = std::max(end_, hi);

  // Merge with any extents overlapping or touching [lo, hi).
  std::uint64_t new_lo = lo;
  std::uint64_t new_hi = hi;
  auto first = overlay_.upper_bound(lo);
  if (first != overlay_.begin()) {
    auto prev = std::prev(first);
    if (prev->first + prev->second.size() >= lo) first = prev;
  }
  auto last = first;
  while (last != overlay_.end() && last->first <= hi) {
    new_lo = std::min(new_lo, last->first);
    new_hi = std::max(new_hi, last->first + last->second.size());
    ++last;
  }
  std::vector<std::byte> merged(new_hi - new_lo);
  // Old content first (so the new write wins where they overlap)...
  for (auto it = first; it != last; ++it) {
    std::memcpy(merged.data() + (it->first - new_lo), it->second.data(),
                it->second.size());
  }
  // ...then the incoming bytes.
  std::memcpy(merged.data() + (lo - new_lo), src.data(), src.size());
  overlay_.erase(first, last);
  overlay_.emplace(new_lo, std::move(merged));
}

}  // namespace colcom::pfs
