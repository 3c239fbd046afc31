#include "core/reduce.hpp"

#include <algorithm>
#include <cstring>

#include "fault/wire.hpp"
#include "util/assert.hpp"

namespace colcom::core {

namespace {

template <typename T, typename F>
T fused_reduce(const T* data, std::uint64_t count, T acc, F f) {
  for (std::uint64_t i = 0; i < count; ++i) acc = f(data[i], acc);
  return acc;
}

template <typename T>
void builtin_combine(mpi::Op::Kind kind, const void* data, std::uint64_t count,
                     void* inout) {
  const T* d = static_cast<const T*>(data);
  T acc;
  std::memcpy(&acc, inout, sizeof(T));
  switch (kind) {
    case mpi::Op::Kind::sum:
      acc = fused_reduce(d, count, acc, [](T a, T b) { return static_cast<T>(a + b); });
      break;
    case mpi::Op::Kind::prod:
      acc = fused_reduce(d, count, acc, [](T a, T b) { return static_cast<T>(a * b); });
      break;
    case mpi::Op::Kind::min:
      acc = fused_reduce(d, count, acc, [](T a, T b) { return std::min(a, b); });
      break;
    case mpi::Op::Kind::max:
      acc = fused_reduce(d, count, acc, [](T a, T b) { return std::max(a, b); });
      break;
    case mpi::Op::Kind::user:
      COLCOM_EXPECT_MSG(false, "builtin path called with user op");
  }
  std::memcpy(inout, &acc, sizeof(T));
}

void builtin_dispatch(mpi::Op::Kind kind, mpi::Prim p, const void* data,
                      std::uint64_t count, void* inout) {
  switch (p) {
    case mpi::Prim::u8:
      builtin_combine<std::uint8_t>(kind, data, count, inout);
      return;
    case mpi::Prim::i32:
      builtin_combine<std::int32_t>(kind, data, count, inout);
      return;
    case mpi::Prim::i64:
      builtin_combine<std::int64_t>(kind, data, count, inout);
      return;
    case mpi::Prim::f32:
      builtin_combine<float>(kind, data, count, inout);
      return;
    case mpi::Prim::f64:
      builtin_combine<double>(kind, data, count, inout);
      return;
  }
  COLCOM_EXPECT_MSG(false, "unknown primitive");
}

}  // namespace

Accumulator::Accumulator(const mpi::Op& op, mpi::Prim p)
    : op_(&op), prim_(p) {
  COLCOM_EXPECT(op.valid());
  if (op.has_identity()) {
    op.identity(value_, p);
    empty_ = false;
  }
}

const void* Accumulator::value() const {
  COLCOM_EXPECT_MSG(!empty_, "empty accumulator has no value");
  return value_;
}

void Accumulator::encode(fault::WireWriter& w) const {
  std::uint64_t bits = 0;
  if (!empty_) std::memcpy(&bits, value_, mpi::prim_size(prim_));
  w.put<std::uint64_t>(empty_ ? 0 : 1).put(bits);
}

void Accumulator::decode(fault::WireReader& r) {
  empty_ = r.at_most(1, "value flag") == 0;
  const std::uint64_t bits = r.get<std::uint64_t>();
  const std::uint64_t es = mpi::prim_size(prim_);
  if ((empty_ && (op_->has_identity() || bits != 0)) ||
      (es < 8 && (bits >> (8 * es)) != 0)) {
    r.fail("a value this accumulator cannot hold");
  }
  std::memcpy(value_, &bits, es);
}

void Accumulator::combine_value(const void* v) {
  const std::uint64_t es = mpi::prim_size(prim_);
  if (empty_) {
    std::memcpy(value_, v, es);
    empty_ = false;
    return;
  }
  op_->apply(v, value_, 1, prim_);
}

void Accumulator::merge(const Accumulator& other) {
  COLCOM_EXPECT(prim_ == other.prim_);
  if (other.empty_) return;
  combine_value(other.value_);
}

void Accumulator::combine(const void* data, std::uint64_t count) {
  if (count == 0) return;
  const std::uint64_t es = mpi::prim_size(prim_);
  if (empty_) {
    std::memcpy(value_, data, es);
    empty_ = false;
    data = static_cast<const unsigned char*>(data) + es;
    if (--count == 0) return;
  }
  if (op_->kind() != mpi::Op::Kind::user) {
    builtin_dispatch(op_->kind(), prim_, data, count, value_);
    return;
  }
  // User op: fold the buffer onto itself halves-at-a-time so the user
  // function sees large spans; commutativity+associativity make this valid.
  // Each pass combines the tail half into the head: live count goes
  // n -> ceil(n/2).
  scratch_.resize(count * es);
  std::memcpy(scratch_.data(), data, count * es);
  std::uint64_t n = count;
  while (n > 1) {
    const std::uint64_t half = n / 2;
    op_->apply(scratch_.data() + (n - half) * es, scratch_.data(), half,
               prim_);
    n -= half;
  }
  op_->apply(scratch_.data(), value_, 1, prim_);
}

}  // namespace colcom::core
