#include "core/iterative.hpp"

#include <bit>
#include <limits>
#include <string>
#include <utility>

#include "check/check.hpp"
#include "fault/chaos.hpp"
#include "fault/wire.hpp"
#include "integrity/integrity.hpp"
#include "mpi/runtime.hpp"
#include "stage/stage.hpp"
#include "util/assert.hpp"

namespace colcom::core {

namespace {

// Checkpoint slot framing: [payload_len:8][payload][magic:8][seq:8][sum:8].
// The trailer makes each generation self-verifying; the magic distinguishes
// a never-written slot (garbage/zeros) from a corrupt one.
constexpr std::uint64_t kCkptTrailerBytes = 24;

struct CkptSlot {
  bool present = false;  ///< trailer magic matched (a generation was written)
  bool intact = false;   ///< payload checksum matched
  std::uint64_t seq = 0;
  std::vector<std::byte> payload;
};

// Reads and parses one generation slot. `inject` arms the ckpt_corrupt_prob
// chaos roll (layer salt 3, keyed by file/slot offset) which flips the
// payload *after* the read and *before* verification — the load-time
// bit-rot the generation chain exists to survive. The probe path passes
// false so sequence discovery neither injects nor double-counts.
CkptSlot read_ckpt_slot(mpi::Comm& comm, pfs::FileId file, std::uint64_t off,
                        bool inject) {
  pfs::Pfs& fs = comm.runtime().fs();
  CkptSlot s;
  const std::uint64_t fsize = fs.file_size(file);
  if (fsize < 8 || off > fsize - 8) return s;
  check::Checker* chk = check::Checker::current();
  std::vector<std::byte> head(8);
  if (chk != nullptr) {
    chk->on_stage_read(comm.rank(), file.index, off, head.size());
  }
  fs.read_async(file, off, head).wait();
  const std::uint64_t len =
      fault::WireReader(head, fault::Layer::core, "checkpoint slot")
          .get<std::uint64_t>();
  // By subtraction, so a length word near 2^64 cannot wrap into range.
  const std::uint64_t room = fsize - off - 8;
  if (len == 0 || len > room || room - len < kCkptTrailerBytes) return s;
  s.payload.resize(len);
  std::vector<std::byte> trailer(kCkptTrailerBytes);
  if (chk != nullptr) {
    chk->on_stage_read(comm.rank(), file.index, off + 8, len);
    chk->on_stage_read(comm.rank(), file.index, off + 8 + len,
                       trailer.size());
  }
  fs.read_async(file, off + 8, s.payload).wait();
  fs.read_async(file, off + 8 + len, trailer).wait();
  fault::WireReader t(trailer, fault::Layer::core, "checkpoint trailer");
  if (t.get<std::uint64_t>() != IterativeComputer::kCheckpointMagic) return s;
  s.present = true;
  s.seq = t.get<std::uint64_t>();
  const std::uint64_t want = t.get<std::uint64_t>();
  fault::Injector* fi = comm.runtime().chaos();
  if (inject && fi != nullptr &&
      fi->schedule().corrupt_extent(3, static_cast<std::uint64_t>(file.index),
                                    off, 0)) {
    fault::chaos_flip(s.payload, fi->schedule().config().seed ^
                                     (static_cast<std::uint64_t>(file.index) *
                                          0x9e3779b97f4a7c15ull +
                                      off));
    fi->note_corruption_injected("ckpt");
  }
  s.intact = integrity::checksum(s.payload) == want;
  return s;
}

}  // namespace

IterativeComputer::IterativeComputer(mpi::Comm& comm,
                                     const ncio::Dataset& ds, ObjectIO base,
                                     stage::StagingArea* staging)
    : comm_(&comm),
      ds_(&ds),
      base_(std::move(base)),
      running_(base_.op, ds.info(base_.var).prim),
      staging_(staging) {
  COLCOM_EXPECT(base_.op.valid());
  COLCOM_EXPECT_MSG(!base_.blocking && base_.collective,
                    "iterative mode is a collective-computing feature");
  const auto& var = ds.info(base_.var);
  COLCOM_EXPECT(var.dims.size() >= 2);
  std::uint64_t slice_elems = 1;
  for (std::size_t d = 1; d < var.dims.size(); ++d) slice_elems *= var.dims[d];
  slice_bytes_ = slice_elems * mpi::prim_size(var.prim);

  const double t0 = comm.wtime();
  const auto req = ds.slab_request(base_.var, base_.start, base_.count);
  // Staging-aware placement consults the attached area's residency of the
  // dataset file; without an area (or with the hint off) the score is 0 on
  // every rank and selection is the spaced default.
  const std::uint64_t residency =
      staging_ != nullptr ? staging_->residency_bytes(ds.file()) : 0;
  plan0_ = romio::build_plan(comm, req,
                             detail::cc_hints(base_, mpi::prim_size(var.prim)),
                             residency);
  plan_cost_s_ = comm.wtime() - t0;
}

IterativeComputer::IterativeComputer(mpi::Comm& comm,
                                     const ncio::Dataset& ds, ObjectIO base,
                                     const Checkpoint& ckpt)
    : comm_(&comm),
      ds_(&ds),
      base_(std::move(base)),
      running_(base_.op, ds.info(base_.var).prim) {
  COLCOM_EXPECT(base_.op.valid());
  COLCOM_EXPECT_MSG(!base_.blocking && base_.collective,
                    "iterative mode is a collective-computing feature");
  const auto& var = ds.info(base_.var);
  COLCOM_EXPECT(var.dims.size() >= 2);
  std::uint64_t slice_elems = 1;
  for (std::size_t d = 1; d < var.dims.size(); ++d) slice_elems *= var.dims[d];
  slice_bytes_ = slice_elems * mpi::prim_size(var.prim);

  // Decode the image: no collectives, no plan rebuild — the whole point of
  // restart is skipping the offset-list exchange.
  constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();
  fault::WireReader r(ckpt.bytes, fault::Layer::core, "checkpoint");
  steps_ = static_cast<int>(r.at_most(kIntMax, "step count"));
  plan_cost_s_ = std::bit_cast<double>(r.get<std::uint64_t>());
  running_.decode(r);
  plan0_ = romio::TwoPhasePlan::deserialize(r.bytes(r.get<std::uint64_t>()));
  // Mid-analysis state of an interrupted step (absent in whole-step
  // checkpoints).
  if (r.at_most(1, "mid flag") != 0) {
    mid_t_ = r.get<std::uint64_t>();
    mid_upto_ = static_cast<int>(r.at_most(kIntMax, "mid cut"));
    const auto mid = r.bytes(r.get<std::uint64_t>());
    mid_state_.assign(mid.begin(), mid.end());
  }
  r.done();

  // Charge the deserialization as a memory-bandwidth scan of the image.
  comm.overhead(static_cast<double>(ckpt.bytes.size()) /
                comm.runtime().config().memcpy_bw);
  if (fault::Injector* fi = comm.runtime().chaos()) fi->note_restore();
}

IterativeComputer::Checkpoint IterativeComputer::checkpoint() {
  Checkpoint ck;
  fault::WireWriter w(ck.bytes);
  w.put(static_cast<std::uint64_t>(steps_));
  w.put(std::bit_cast<std::uint64_t>(plan_cost_s_));
  running_.encode(w);
  const std::vector<std::byte> plan_wire = plan0_.serialize();
  w.put<std::uint64_t>(plan_wire.size()).bytes(plan_wire);
  w.put<std::uint64_t>(mid_upto_ >= 0 ? 1 : 0);
  if (mid_upto_ >= 0) {
    w.put(mid_t_).put(static_cast<std::uint64_t>(mid_upto_));
    w.put<std::uint64_t>(mid_state_.size()).bytes(mid_state_);
  }

  // Charge the serialization as a memory-bandwidth scan of the image.
  comm_->overhead(static_cast<double>(ck.bytes.size()) /
                  comm_->runtime().config().memcpy_bw);
  if (fault::Injector* fi = comm_->runtime().chaos()) fi->note_checkpoint();
  return ck;
}

CcStats IterativeComputer::run_window(std::uint64_t t, int begin, int upto,
                                      CcOutput& out) {
  const auto& var = ds_->info(base_.var);
  COLCOM_EXPECT_MSG(t + base_.count[0] <= var.dims[0],
                    "shifted window exceeds the variable");
  ObjectIO obj = base_;
  obj.start[0] = t;
  const std::int64_t delta =
      (static_cast<std::int64_t>(t) -
       static_cast<std::int64_t>(base_.start[0])) *
      static_cast<std::int64_t>(slice_bytes_);
  const romio::TwoPhasePlan plan = plan0_.shifted(delta);
  RunOptions ropt;
  ropt.staging = staging_;
  ropt.source = source_;
  ropt.begin_iter = begin;
  ropt.end_iter = upto;
  ropt.mid = &mid_state_;
  return collective_compute_with_plan(*comm_, *ds_, obj, plan, out, ropt);
}

CcStats IterativeComputer::step(std::uint64_t t, CcOutput& out) {
  int begin = 0;
  if (mid_upto_ >= 0) {
    COLCOM_EXPECT_MSG(t == mid_t_,
                      "resuming step must use the interrupted step's t");
    begin = mid_upto_;
  }
  CcStats stats = run_window(t, begin, -1, out);
  mid_upto_ = -1;
  mid_t_ = 0;
  mid_state_.clear();
  ++steps_;
  if (out.has_global) running_.combine_value(out.global);
  return stats;
}

CcStats IterativeComputer::step_prefix(std::uint64_t t, int upto,
                                       CcOutput& out) {
  COLCOM_EXPECT_MSG(mid_upto_ < 0,
                    "step_prefix with a mid-analysis cut already parked");
  COLCOM_EXPECT(upto >= 0);
  CcStats stats = run_window(t, 0, upto, out);
  if (upto < plan0_.n_iters) {
    mid_t_ = t;
    mid_upto_ = upto;
  } else {
    // The cut landed at (or past) the end: the step completed normally.
    mid_state_.clear();
    ++steps_;
    if (out.has_global) running_.combine_value(out.global);
  }
  return stats;
}

std::uint64_t IterativeComputer::persist_checkpoint(pfs::FileId file,
                                                    std::uint64_t offset,
                                                    int n_gens,
                                                    std::uint64_t slot_stride) {
  COLCOM_EXPECT(n_gens >= 1);
  COLCOM_EXPECT_MSG(n_gens == 1 || slot_stride > 0,
                    "a generation chain needs a slot stride");
  if (ckpt_seq_ == 0 && n_gens > 1) {
    // First generational persist of this computer: continue the chain of a
    // previous incarnation (a restarted rank must not recycle a live
    // generation number — the newest-intact scan would prefer the stale
    // image). Probe parses trailers only; no chaos, no integrity counters.
    for (int g = 0; g < n_gens; ++g) {
      const CkptSlot s = read_ckpt_slot(
          *comm_, file, offset + static_cast<std::uint64_t>(g) * slot_stride,
          /*inject=*/false);
      if (s.present && s.seq > ckpt_seq_) ckpt_seq_ = s.seq;
    }
  }
  const Checkpoint ck = checkpoint();
  const std::uint64_t seq = ++ckpt_seq_;
  const std::uint64_t sum = integrity::checksum(ck.bytes);
  std::vector<std::byte> image;
  image.reserve(8 + ck.bytes.size() + kCkptTrailerBytes);
  fault::WireWriter(image)
      .put<std::uint64_t>(ck.bytes.size())
      .bytes(ck.bytes)
      .put(IterativeComputer::kCheckpointMagic)
      .put(seq)
      .put(sum);
  const std::uint64_t slot = seq % static_cast<std::uint64_t>(n_gens);
  COLCOM_EXPECT_MSG(n_gens == 1 || image.size() <= slot_stride,
                    "checkpoint image exceeds the generation slot stride");
  const std::uint64_t off = offset + slot * slot_stride;
  if (staging_ != nullptr) {
    staging_->wb_write(file, off, image);
  } else {
    pfs::Pfs& fs = comm_->runtime().fs();
    fs.write_async(file, off, image).wait();
  }
  return image.size();
}

IterativeComputer::Checkpoint IterativeComputer::load_checkpoint(
    mpi::Comm& comm, pfs::FileId file, std::uint64_t offset, int n_gens,
    std::uint64_t slot_stride) {
  COLCOM_EXPECT(n_gens >= 1);
  COLCOM_EXPECT_MSG(n_gens == 1 || slot_stride > 0,
                    "a generation chain needs a slot stride");
  // One-shot restore: no staging cache involved, but every slot read
  // carries the CHK-IO marker (inside read_ckpt_slot) so a load racing the
  // write-behind drain of persist_checkpoint is surfaced, not silently
  // reordered. Each present slot is verified against its trailer checksum
  // at this point of use; the newest intact generation wins. One corrupt
  // load is one detection episode, closed by either the fallback
  // (recovered) or the structured data_corrupt error (failed).
  bool detected = false;
  CkptSlot best;
  for (int g = 0; g < n_gens; ++g) {
    CkptSlot s = read_ckpt_slot(
        comm, file, offset + static_cast<std::uint64_t>(g) * slot_stride,
        /*inject=*/true);
    if (!s.present) continue;
    integrity::note_verified(integrity::Stage::checkpoint);
    if (!s.intact) {
      if (!detected) {
        detected = true;
        integrity::note_detected(integrity::Stage::checkpoint);
      }
      continue;
    }
    if (!best.present || s.seq > best.seq) best = std::move(s);
  }
  if (best.present && best.intact) {
    if (detected) {
      integrity::note_recovered(integrity::Stage::checkpoint,
                                best.payload.size());
    }
    Checkpoint ck;
    ck.bytes = std::move(best.payload);
    return ck;
  }
  // No generation verifies (or none was ever written where one is
  // expected): surface structured, never return silently wrong bytes.
  if (!detected) integrity::note_detected(integrity::Stage::checkpoint);
  throw integrity::make_corrupt_error(
      fault::Layer::core, integrity::Stage::checkpoint,
      "file " + std::to_string(file.index) + " offset " +
          std::to_string(offset) + ": no intact generation among " +
          std::to_string(n_gens));
}

}  // namespace colcom::core
