// Byte stores backing simulated files.
//
// MemStore holds real bytes. GeneratorStore synthesizes bytes on demand from
// a closed-form element function, so an "800 GB" logical dataset costs no
// memory and every byte has independently computable ground truth — the key
// to verifying collective reads and reductions exactly. OverlayStore layers
// written extents over a generator (used for dataset headers).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "util/assert.hpp"

namespace colcom::pfs {

/// Abstract random-access byte store.
class Store {
 public:
  virtual ~Store() = default;

  /// Copies `dst.size()` bytes starting at `offset` into `dst`.
  /// Requires offset + dst.size() <= size().
  virtual void read(std::uint64_t offset, std::span<std::byte> dst) const = 0;

  /// Writes `src` at `offset`. Stores that cannot accept writes throw.
  virtual void write(std::uint64_t offset, std::span<const std::byte> src) = 0;

  /// Logical size in bytes.
  virtual std::uint64_t size() const = 0;

  /// The trustworthy view of this store's content, used for end-to-end
  /// checksums. Fault-injecting wrappers return the wrapped store; honest
  /// stores return themselves.
  virtual const Store& pristine() const { return *this; }
};

/// Bytes held in memory; grows on write. The bytes come from `calloc`, so a
/// byte never written reads as zero and a page is committed only when it is
/// first written: a large file store that the run never fills costs address
/// space, not resident memory. The bytes past size() up to the capacity are
/// never written, so they stay zero for a later write past the end.
class MemStore final : public Store {
 public:
  MemStore() = default;
  explicit MemStore(std::uint64_t size) {
    reserve(size);
    size_ = size;
  }

  void read(std::uint64_t offset, std::span<std::byte> dst) const override {
    COLCOM_EXPECT(offset <= size_ && dst.size() <= size_ - offset);
    if (!dst.empty()) std::memcpy(dst.data(), data_.get() + offset, dst.size());
  }

  void write(std::uint64_t offset, std::span<const std::byte> src) override {
    const std::uint64_t end = offset + src.size();
    if (end > capacity_) reserve(std::max(end, 2 * capacity_));
    if (!src.empty()) std::memcpy(data_.get() + offset, src.data(), src.size());
    size_ = std::max(size_, end);
  }

  std::uint64_t size() const override { return size_; }

 private:
  /// Moves the bytes into a zeroed block of `capacity` bytes.
  void reserve(std::uint64_t capacity);

  struct Free {
    void operator()(std::byte* p) const { std::free(p); }
  };
  std::unique_ptr<std::byte[], Free> data_;
  std::uint64_t size_ = 0;
  std::uint64_t capacity_ = 0;
};

/// Fills reads from `fill(byte_offset, dst)`; read-only.
class GeneratorStore final : public Store {
 public:
  using FillFn = std::function<void(std::uint64_t offset, std::span<std::byte>)>;

  GeneratorStore(std::uint64_t size, FillFn fill)
      : size_(size), fill_(std::move(fill)) {
    COLCOM_EXPECT(fill_ != nullptr);
  }

  void read(std::uint64_t offset, std::span<std::byte> dst) const override {
    COLCOM_EXPECT(offset + dst.size() <= size_);
    fill_(offset, dst);
  }

  void write(std::uint64_t, std::span<const std::byte>) override {
    COLCOM_EXPECT_MSG(false, "GeneratorStore is read-only");
  }

  std::uint64_t size() const override { return size_; }

 private:
  std::uint64_t size_;
  FillFn fill_;
};

/// A GeneratorStore over typed elements: element i has value fn(i).
/// Elements must be trivially copyable.
template <typename T>
std::unique_ptr<GeneratorStore> make_element_generator(
    std::uint64_t element_count, std::function<T(std::uint64_t)> fn) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::uint64_t bytes = element_count * sizeof(T);
  auto fill = [fn = std::move(fn)](std::uint64_t offset,
                                   std::span<std::byte> dst) {
    // Reads may start/stop mid-element; synthesize whole elements and copy
    // the overlapping slice.
    std::uint64_t pos = 0;
    while (pos < dst.size()) {
      const std::uint64_t abs = offset + pos;
      const std::uint64_t idx = abs / sizeof(T);
      const std::uint64_t within = abs % sizeof(T);
      const T value = fn(idx);
      const auto* vb = reinterpret_cast<const std::byte*>(&value);
      const std::uint64_t n =
          std::min<std::uint64_t>(sizeof(T) - within, dst.size() - pos);
      std::memcpy(dst.data() + pos, vb + within, n);
      pos += n;
    }
  };
  return std::make_unique<GeneratorStore>(bytes, std::move(fill));
}

/// Written extents shadow a read-only base store — gives generator-backed
/// files a writable header region.
class OverlayStore final : public Store {
 public:
  explicit OverlayStore(std::unique_ptr<Store> base) : base_(std::move(base)) {
    COLCOM_EXPECT(base_ != nullptr);
  }

  void read(std::uint64_t offset, std::span<std::byte> dst) const override;
  void write(std::uint64_t offset, std::span<const std::byte> src) override;
  std::uint64_t size() const override { return std::max(base_->size(), end_); }

 private:
  std::unique_ptr<Store> base_;
  // start offset -> bytes; extents are kept non-overlapping and non-adjacent.
  std::map<std::uint64_t, std::vector<std::byte>> overlay_;
  std::uint64_t end_ = 0;
};

}  // namespace colcom::pfs
