// ULFM-flavored fault-tolerance tests: crash-aware receives, the
// coordinator agreement, survivor groups, and end-to-end collective
// computing with a process killed inside each control-plane phase (plan
// exchange, crash watch, replan, mid-map, collective flush). The invariant:
// survivors complete, the reduction is bit-identical to the fault-free run,
// and warm-partial recovery reads fewer PFS bytes than the cold re-read.
// CI sweeps COLCOM_CHAOS_SEED over these (see scripts/ci.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "core/object_io.hpp"
#include "core/runtime.hpp"
#include "des/engine.hpp"
#include "fault/chaos.hpp"
#include "fault/fault.hpp"
#include "mpi/ft.hpp"
#include "mpi/runtime.hpp"
#include "ncio/dataset.hpp"
#include "pfs/store.hpp"
#include "romio/collective.hpp"
#include "romio/plan.hpp"
#include "stage/stage.hpp"
#include "trace/trace.hpp"

namespace colcom {
namespace {

/// CI sweeps several seeds: COLCOM_CHAOS_SEED overrides the default.
std::uint64_t chaos_seed() {
  if (const char* s = std::getenv("COLCOM_CHAOS_SEED")) {
    return std::strtoull(s, nullptr, 0);
  }
  return 0xc4a05;
}

// ---------------- primitives: recv_ft / agree / shrink ----------------

TEST(FtPrimitives, RecvFtSurfacesDeadPeerInsteadOfHanging) {
  mpi::MachineConfig cfg;
  cfg.cores_per_node = 4;
  mpi::Runtime rt(cfg, 2);
  fault::ChaosConfig cc;
  cc.seed = chaos_seed();
  fault::ChaosSchedule sched(cc, rt.n_nodes(), 2, 4);
  sched.add_crash_point({fault::Phase::mid_map, 1, 1});
  rt.install_chaos(std::move(sched));
  bool detected = false;
  rt.run([&](mpi::Comm& c) {
    if (c.rank() == 1) {
      mpi::ft::crash_point(c, fault::Phase::mid_map);  // dies here
      FAIL() << "crash point did not fire";
    }
    std::vector<std::byte> buf(8);
    try {
      c.recv_ft(1, 7, buf);
    } catch (const fault::Error& e) {
      detected = e.kind() == fault::Kind::rank_failed && e.rank() == 1;
    }
  });
  EXPECT_TRUE(detected);
  EXPECT_EQ(rt.chaos()->stats().rank_crashes, 1u);
  EXPECT_GE(rt.chaos()->stats().crash_detections, 1u);
}

/// One agreement among 8 ranks with two dead participants: every survivor
/// must receive the identical verdict (mask OR of the survivors' bits plus
/// the same death snapshot) — unanimity under a double crash.
TEST(FtPrimitives, AgreementUnanimousUnderDoubleCrash) {
  constexpr int np = 8;
  mpi::MachineConfig cfg;
  cfg.cores_per_node = 4;
  mpi::Runtime rt(cfg, np);
  fault::ChaosConfig cc;
  cc.seed = chaos_seed();
  fault::ChaosSchedule sched(cc, rt.n_nodes(), np, 8);
  sched.add_crash_point({fault::Phase::plan_exchange, 2, 1});
  sched.add_crash_point({fault::Phase::plan_exchange, 5, 1});
  rt.install_chaos(std::move(sched));
  std::vector<std::uint64_t> masks(np, 0);
  std::vector<std::uint64_t> deads(np, 0);
  std::vector<int> rounds(np, 0);
  rt.run([&](mpi::Comm& c) {
    mpi::ft::crash_point(c, fault::Phase::plan_exchange);  // kills 2 and 5
    const std::uint64_t mine = 1ull << c.rank();
    const auto v = mpi::ft::agree(c, std::span<const std::uint64_t>(&mine, 1),
                                  /*epoch=*/0);
    const auto i = static_cast<std::size_t>(c.rank());
    masks[i] = v.mask[0];
    deads[i] = v.dead[0];
    rounds[i] = v.rounds;
  });
  const std::uint64_t expect_mask =
      0xffull & ~((1ull << 2) | (1ull << 5));  // every survivor's bit
  for (int r = 0; r < np; ++r) {
    if (r == 2 || r == 5) continue;
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(masks[i], expect_mask) << "rank " << r;
    EXPECT_EQ(deads[i], (1ull << 2) | (1ull << 5)) << "rank " << r;
    EXPECT_EQ(rounds[i], 1) << "rank " << r;
  }
}

/// The round-0 coordinator dies before deciding: every survivor must
/// restart with candidate 1 (ERA-style) and still agree unanimously.
TEST(FtPrimitives, AgreementSurvivesCoordinatorDeath) {
  constexpr int np = 4;
  mpi::MachineConfig cfg;
  cfg.cores_per_node = 4;
  mpi::Runtime rt(cfg, np);
  fault::ChaosConfig cc;
  cc.seed = chaos_seed();
  fault::ChaosSchedule sched(cc, rt.n_nodes(), np, 8);
  sched.add_crash_point({fault::Phase::plan_exchange, 0, 1});
  rt.install_chaos(std::move(sched));
  std::vector<std::uint64_t> masks(np, 0);
  std::vector<int> rounds(np, 0);
  rt.run([&](mpi::Comm& c) {
    mpi::ft::crash_point(c, fault::Phase::plan_exchange);  // kills rank 0
    const std::uint64_t mine = 1ull << c.rank();
    const auto v =
        mpi::ft::agree(c, std::span<const std::uint64_t>(&mine, 1), 0);
    const auto i = static_cast<std::size_t>(c.rank());
    masks[i] = v.mask[0];
    rounds[i] = v.rounds;
  });
  for (int r = 1; r < np; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(masks[i], 0xeull) << "rank " << r;  // bits 1..3
    EXPECT_EQ(rounds[i], 2) << "rank " << r;      // candidate 0 died
  }
}

TEST(FtPrimitives, ShrinkGroupRunsBarrierAndBcastOverSurvivors) {
  constexpr int np = 8;
  mpi::MachineConfig cfg;
  cfg.cores_per_node = 4;
  mpi::Runtime rt(cfg, np);
  fault::ChaosConfig cc;
  cc.seed = chaos_seed();
  fault::ChaosSchedule sched(cc, rt.n_nodes(), np, 8);
  sched.add_crash_point({fault::Phase::plan_exchange, 3, 1});
  rt.install_chaos(std::move(sched));
  std::vector<std::int32_t> got(np, -1);
  std::vector<int> sizes(np, 0);
  rt.run([&](mpi::Comm& c) {
    mpi::ft::crash_point(c, fault::Phase::plan_exchange);  // kills rank 3
    mpi::ft::Group g = c.shrink(/*epoch=*/0);
    const auto i = static_cast<std::size_t>(c.rank());
    sizes[i] = g.size();
    EXPECT_FALSE(g.full());
    EXPECT_TRUE(g.member(0));
    EXPECT_FALSE(g.member(3));
    g.barrier();
    std::int32_t payload = c.rank() == 0 ? 4711 : 0;
    g.bcast(std::as_writable_bytes(std::span<std::int32_t>(&payload, 1)),
            /*root_index=*/0);
    got[i] = payload;
  });
  for (int r = 0; r < np; ++r) {
    if (r == 3) continue;
    EXPECT_EQ(sizes[static_cast<std::size_t>(r)], np - 1);
    EXPECT_EQ(got[static_cast<std::size_t>(r)], 4711);
  }
}

// ---------------- collective computing under process crashes ----------------

constexpr int kProcs = 8;

struct FtRun {
  double elapsed = 0;
  float value = 0;                     // root's global result
  core::CcStats stats;                 // rank 0's stats
  fault::FaultStats faults;            // whole-machine fault counters
  std::uint64_t total_bytes_read = 0;  // summed over every surviving rank
  std::vector<float> bcast;            // per-rank broadcast copy
  std::vector<char> finished;          // ranks that completed the analysis
};

/// 8 ranks, a (64, 16, 16) f32 variable, 8 KB chunks — run_cc from
/// test_fault_net with control-plane crash points installed. With
/// cores_per_node=4 the aggregators are ranks 0 and 4; with 2 they are
/// 0/2/4/6 (one per node).
FtRun run_cc_ft(const std::vector<fault::CrashPoint>& points,
                const std::vector<fault::ChaosEvent>& events = {},
                fault::ChaosConfig chaos = {}, int cores_per_node = 4) {
  mpi::MachineConfig machine;
  machine.cores_per_node = cores_per_node;
  machine.pfs.n_osts = 4;
  machine.pfs.stripe_size = 8192;
  machine.chaos = chaos;
  mpi::Runtime rt(machine, kProcs);
  if (!points.empty() || !events.empty() || chaos.any()) {
    fault::ChaosSchedule sched(chaos, rt.n_nodes(), kProcs, 8);
    for (const auto& ev : events) sched.add(ev);
    for (const auto& cp : points) sched.add_crash_point(cp);
    rt.install_chaos(std::move(sched));
  }
  auto ds = ncio::DatasetBuilder(rt.fs(), "ft.nc")
                .add_generated_var<float>(
                    "v", {64, 16, 16},
                    [](std::span<const std::uint64_t> c) {
                      double v = 1.0;
                      for (auto x : c) v = v * 3.7 + static_cast<double>(x);
                      return static_cast<float>(v * 1e-3);
                    })
                .finish();
  FtRun res;
  res.bcast.assign(kProcs, 0);
  res.finished.assign(kProcs, 0);
  rt.run([&](mpi::Comm& comm) {
    core::ObjectIO io;
    io.var = ds.var("v");
    const auto r = static_cast<std::uint64_t>(comm.rank());
    io.start = {0, 2 * r, 0};
    io.count = {64, 2, 16};
    io.op = mpi::Op::sum();
    io.hints.cb_buffer_size = 8192;
    core::CcOutput out;
    const auto st = core::collective_compute(comm, ds, io, out);
    const auto i = static_cast<std::size_t>(comm.rank());
    res.total_bytes_read += st.bytes_read;
    if (out.has_global) res.bcast[i] = out.global_as<float>();
    res.finished[i] = 1;
    if (comm.rank() == 0) {
      res.value = out.global_as<float>();
      res.stats = st;
    }
  });
  res.elapsed = rt.elapsed();
  if (rt.chaos() != nullptr) res.faults = rt.chaos()->stats();
  return res;
}

/// Survivors finished, dead ranks did not, and every survivor's broadcast
/// copy matches the root's bit pattern.
void expect_survivors(const FtRun& r, const std::vector<int>& dead) {
  for (int p = 0; p < kProcs; ++p) {
    const auto i = static_cast<std::size_t>(p);
    const bool is_dead =
        std::find(dead.begin(), dead.end(), p) != dead.end();
    EXPECT_EQ(r.finished[i] != 0, !is_dead) << "rank " << p;
    if (!is_dead) {
      EXPECT_EQ(std::memcmp(&r.bcast[i], &r.value, sizeof(float)), 0)
          << "rank " << p;
    }
  }
}

TEST(CcFt, CrashInsidePlanExchangeFailsOverBitIdentically) {
  const FtRun clean = run_cc_ft({});
  fault::ChaosConfig cfg;
  cfg.seed = chaos_seed();
  const std::vector<fault::CrashPoint> pts{
      {fault::Phase::plan_exchange, 4, 1}};
  const FtRun a = run_cc_ft(pts, {}, cfg);
  EXPECT_EQ(std::memcmp(&a.value, &clean.value, sizeof(float)), 0);
  expect_survivors(a, {4});
  EXPECT_EQ(a.faults.rank_crashes, 1u);
  EXPECT_EQ(a.faults.replans, 1u);
  EXPECT_GT(a.faults.agreement_rounds, 0u);
  const FtRun b = run_cc_ft(pts, {}, cfg);
  EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.faults.absorbed_chunks, b.faults.absorbed_chunks);
}

TEST(CcFt, CrashInsideCrashWatchFailsOverBitIdentically) {
  const FtRun clean = run_cc_ft({});
  fault::ChaosConfig cfg;
  cfg.seed = chaos_seed();
  // Rank 4 dies entering its second crash-watch agreement: iteration 0 is
  // fully served, the remaining chunks of its domain fail over.
  const std::vector<fault::CrashPoint> pts{{fault::Phase::crash_watch, 4, 2}};
  const FtRun a = run_cc_ft(pts, {}, cfg);
  EXPECT_EQ(std::memcmp(&a.value, &clean.value, sizeof(float)), 0);
  expect_survivors(a, {4});
  EXPECT_EQ(a.faults.rank_crashes, 1u);
  EXPECT_EQ(a.faults.replans, 1u);
  EXPECT_GT(a.faults.absorbed_chunks, 0u);
  const FtRun b = run_cc_ft(pts, {}, cfg);
  EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
}

TEST(CcFt, CrashMidMapIsMadeUpBitIdentically) {
  const FtRun clean = run_cc_ft({});
  fault::ChaosConfig cfg;
  cfg.seed = chaos_seed();
  // Rank 4 dies after reading its second chunk, before shuffling it: the
  // receivers observe a dead source mid-iteration, defer, and the make-up
  // serving replays the missed slot in original combine order.
  const std::vector<fault::CrashPoint> pts{{fault::Phase::mid_map, 4, 2}};
  const FtRun a = run_cc_ft(pts, {}, cfg);
  EXPECT_EQ(std::memcmp(&a.value, &clean.value, sizeof(float)), 0);
  expect_survivors(a, {4});
  EXPECT_EQ(a.faults.rank_crashes, 1u);
  EXPECT_EQ(a.faults.replans, 1u);
  EXPECT_GT(a.faults.crash_detections, 0u);
  const FtRun b = run_cc_ft(pts, {}, cfg);
  EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
}

TEST(CcFt, CascadingCrashDuringReplanStaysExact) {
  // One aggregator per node (ranks 0/2/4/6). Rank 4 dies at its second
  // crash watch; rank 6 then dies *inside the replan* triggered by 4's
  // death — the cascading double crash in one iteration. replan_local is
  // message-free, so the remaining survivors still derive identical
  // absorbed domains for both dead aggregators.
  const FtRun clean = run_cc_ft({}, {}, {}, /*cores_per_node=*/2);
  fault::ChaosConfig cfg;
  cfg.seed = chaos_seed();
  const std::vector<fault::CrashPoint> pts{{fault::Phase::crash_watch, 4, 2},
                                           {fault::Phase::replan, 6, 1}};
  const FtRun a = run_cc_ft(pts, {}, cfg, 2);
  EXPECT_EQ(std::memcmp(&a.value, &clean.value, sizeof(float)), 0);
  expect_survivors(a, {4, 6});
  EXPECT_EQ(a.faults.rank_crashes, 2u);
  EXPECT_GE(a.faults.replans, 2u);
  const FtRun b = run_cc_ft(pts, {}, cfg, 2);
  EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.faults.absorbed_chunks, b.faults.absorbed_chunks);
}

TEST(CcFt, CrashPointsComposeWithMessageLoss) {
  const FtRun clean = run_cc_ft({});
  fault::ChaosConfig cfg;
  cfg.seed = chaos_seed();
  cfg.msg_loss_prob = 0.05;
  cfg.ack_timeout_s = 1e-4;
  const std::vector<fault::CrashPoint> pts{{fault::Phase::crash_watch, 4, 2}};
  const FtRun a = run_cc_ft(pts, {}, cfg);
  EXPECT_EQ(std::memcmp(&a.value, &clean.value, sizeof(float)), 0);
  expect_survivors(a, {4});
  const FtRun b = run_cc_ft(pts, {}, cfg);
  EXPECT_DOUBLE_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.faults.msgs_dropped, b.faults.msgs_dropped);
}

// ---------------- warm-partial recovery ----------------

TEST(CcFt, WarmPartialIsBitIdenticalAndReadsFewerPfsBytes) {
  const FtRun clean = run_cc_ft({});
  // A timed role crash strikes rank 4 mid-iteration: the chunk it already
  // mapped is parked and shipped to the absorbing survivor instead of
  // being re-read from the PFS.
  fault::ChaosEvent crash;
  crash.kind = fault::Kind::aggregator_crash;
  crash.subject = 4;
  crash.at = 2e-3;
  fault::ChaosConfig warm_cfg;
  warm_cfg.seed = chaos_seed();
  const FtRun warm = run_cc_ft({}, {crash}, warm_cfg);
  fault::ChaosConfig cold_cfg = warm_cfg;
  cold_cfg.warm_partials = false;  // A/B: force the cold re-read path
  const FtRun cold = run_cc_ft({}, {crash}, cold_cfg);

  // Both recovery paths preserve the FP combine order exactly.
  EXPECT_EQ(std::memcmp(&warm.value, &clean.value, sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(&cold.value, &clean.value, sizeof(float)), 0);

  ASSERT_GE(warm.faults.warm_chunks, 1u)
      << "crash time missed the mid-iteration window";
  EXPECT_GT(warm.faults.warm_records, 0u);
  EXPECT_GT(warm.faults.warm_bytes_saved, 0u);
  EXPECT_EQ(cold.faults.warm_chunks, 0u);
  // The warm run skipped the dead aggregator's re-read: strictly fewer PFS
  // bytes than the cold run, by exactly the saved amount.
  EXPECT_LT(warm.total_bytes_read, cold.total_bytes_read);
  EXPECT_EQ(warm.total_bytes_read + warm.faults.warm_bytes_saved,
            cold.total_bytes_read);

  const FtRun again = run_cc_ft({}, {crash}, warm_cfg);
  EXPECT_DOUBLE_EQ(warm.elapsed, again.elapsed);
  EXPECT_EQ(warm.faults.warm_records, again.faults.warm_records);
}

// ------------- a failed side-channel read aborts everyone -------------

/// Serves primary chunks from the PFS through romio::ChunkReader (a demand
/// read at take()); its aux() readers — the absorb and make-up side-channel
/// — fail every take(). `take_done`, when set, records the virtual time each
/// primary take() returned.
class FailingAuxSource final : public stage::ChunkSource {
 public:
  FailingAuxSource(mpi::Comm& comm, pfs::FileId file, bool primary,
                   std::vector<double>* take_done)
      : comm_(&comm), file_(file), primary_(primary), take_done_(take_done) {}

  bool begin(pfs::ByteExtent chunk,
             const std::vector<romio::FlatRequest>& dreqs, bool) override {
    pending_.push_back({chunk, &dreqs});
    return true;
  }
  stage::SourceChunk take() override {
    if (!primary_) {
      throw fault::Error(fault::Layer::stage, fault::Kind::retry_exhausted,
                         "side-channel read failed");
    }
    const auto [chunk, dreqs] = pending_.front();
    pending_.pop_front();
    romio::ChunkReader reader;
    reader.issue(comm_->runtime().fs(), file_, *dreqs, chunk, buf_, 0,
                 comm_->wtime());
    reader.wait();
    if (take_done_ != nullptr) take_done_->push_back(comm_->wtime());
    extents_ = reader.extents();
    stage::SourceChunk out;
    out.data = buf_;
    out.extents = extents_;
    out.service_s = reader.service_time();
    out.bytes_read = reader.bytes_read();
    return out;
  }
  void release() override {}
  std::unique_ptr<stage::ChunkSource> aux() override {
    return std::make_unique<FailingAuxSource>(*comm_, file_, false, nullptr);
  }

 private:
  struct Pending {
    pfs::ByteExtent chunk;
    const std::vector<romio::FlatRequest>* dreqs;
  };
  mpi::Comm* comm_;
  pfs::FileId file_;
  bool primary_;
  std::vector<double>* take_done_;
  std::deque<Pending> pending_;
  std::vector<std::byte> buf_;
  std::vector<pfs::ByteExtent> extents_;
};

/// Per rank: finished (no throw), or the kind of the fault::Error thrown.
struct AbortRun {
  std::vector<char> finished;
  std::vector<std::optional<fault::Kind>> kind;
  std::vector<double> rank4_takes;  // rank 4's primary take() return times
  double elapsed = 0;               // virtual end of the run
};

/// run_cc_ft's world as a plan-based run under `mode`, crash `points` and
/// `events`. With `failing_aux` its chunks come from a FailingAuxSource;
/// without, it is a plain run — no service, no run options.
AbortRun run_plan_ft(core::ReduceMode mode,
                     const std::vector<fault::CrashPoint>& points,
                     const std::vector<fault::ChaosEvent>& events = {},
                     bool failing_aux = false) {
  mpi::MachineConfig machine;
  machine.cores_per_node = 4;
  machine.pfs.n_osts = 4;
  machine.pfs.stripe_size = 8192;
  mpi::Runtime rt(machine, kProcs);
  fault::ChaosConfig chaos;
  chaos.seed = chaos_seed();
  chaos.warm_partials = false;  // every make-up is a cold side-channel read
  fault::ChaosSchedule sched(chaos, rt.n_nodes(), kProcs, 8);
  for (const auto& ev : events) sched.add(ev);
  for (const auto& cp : points) sched.add_crash_point(cp);
  rt.install_chaos(std::move(sched));
  auto ds = ncio::DatasetBuilder(rt.fs(), "ft.nc")
                .add_generated_var<float>(
                    "v", {64, 16, 16},
                    [](std::span<const std::uint64_t> c) {
                      double v = 1.0;
                      for (auto x : c) v = v * 3.7 + static_cast<double>(x);
                      return static_cast<float>(v * 1e-3);
                    })
                .finish();
  AbortRun res;
  res.finished.assign(kProcs, 0);
  res.kind.assign(kProcs, std::nullopt);
  rt.run([&](mpi::Comm& comm) {
    core::ObjectIO io;
    io.var = ds.var("v");
    const auto r = static_cast<std::uint64_t>(comm.rank());
    io.start = {0, 2 * r, 0};
    io.count = {64, 2, 16};
    io.op = mpi::Op::sum();
    io.hints.cb_buffer_size = 8192;
    io.reduce_mode = mode;
    const romio::TwoPhasePlan plan = romio::build_plan(
        comm, ds.slab_request(io.var, io.start, io.count),
        core::detail::cc_hints(io, sizeof(float)));
    FailingAuxSource src(comm, ds.file(), true,
                         comm.rank() == 4 ? &res.rank4_takes : nullptr);
    core::RunOptions ropt;
    if (failing_aux) ropt.source = &src;
    core::CcOutput out;
    try {
      core::collective_compute_with_plan(comm, ds, io, plan, out, ropt);
      res.finished[r] = 1;
    } catch (const fault::Error& e) {
      res.kind[r] = e.kind();
    }
  });
  res.elapsed = rt.elapsed();
  return res;
}

TEST(CcFt, FailedSideChannelReadAbortsEveryRankInBothReduceModes) {
  // Rank 4's role dies and rank 0 must serve its chunks, but every
  // side-channel read of rank 0 fails. Two timings:
  //   - in rank 4's last iteration, after its chunk is read: the receivers
  //     log the miss, the final watch announces it, and the cold make-up
  //     re-read fails;
  //   - just after a mid-run read: that chunk still ships, the next watch
  //     sees the death, and the absorb of the next chunk fails.
  // Every receiver of the failed slot must be told, so the attempt aborts
  // as slice_aborted on all ranks instead of leaving them polling for
  // records that never come. Under all_to_all the receivers are the ranks
  // holding pieces of the dead domain's chunk. A crash point that never
  // fires arms recover mode.
  const fault::CrashPoint kNeverFires{fault::Phase::plan_exchange, 7, 1000};
  for (const auto mode :
       {core::ReduceMode::all_to_one, core::ReduceMode::all_to_all}) {
    const AbortRun probe = run_plan_ft(mode, {kNeverFires}, {}, true);
    ASSERT_FALSE(probe.rank4_takes.empty());
    for (int p = 0; p < kProcs; ++p) {
      EXPECT_TRUE(probe.finished[static_cast<std::size_t>(p)] != 0)
          << "rank " << p;
    }
    const double makeup_at = probe.rank4_takes.back();
    const double absorb_at =
        probe.rank4_takes[probe.rank4_takes.size() / 2] + 1e-9;
    for (const double at : {makeup_at, absorb_at}) {
      fault::ChaosEvent crash;
      crash.kind = fault::Kind::aggregator_crash;
      crash.subject = 4;
      crash.at = at;
      const AbortRun run = run_plan_ft(mode, {kNeverFires}, {crash}, true);
      for (int p = 0; p < kProcs; ++p) {
        const auto i = static_cast<std::size_t>(p);
        EXPECT_EQ(run.finished[i], 0) << "rank " << p << " crash at " << at;
        EXPECT_EQ(run.kind[i], fault::Kind::slice_aborted)
            << "rank " << p << " crash at " << at;
      }
    }
  }
}

// ------------- structured errors without a scheduler -------------

/// No rank finished; the `dead` ranks died, every other one threw `want`.
void expect_all_failed(const AbortRun& run, const std::vector<int>& dead,
                       fault::Kind want) {
  for (int p = 0; p < kProcs; ++p) {
    const auto i = static_cast<std::size_t>(p);
    EXPECT_EQ(run.finished[i], 0) << "rank " << p;
    if (std::find(dead.begin(), dead.end(), p) != dead.end()) {
      EXPECT_EQ(run.kind[i], std::nullopt) << "rank " << p;
    } else {
      EXPECT_EQ(run.kind[i], want) << "rank " << p;
    }
  }
}

TEST(CcFt, AllToAllProcessDeathIsUnrecoverableOnEveryAliveRank) {
  // Rank 4 dies after reading its second chunk. An all_to_all reduction
  // cannot finish without a member, so the crash points alone make every
  // alive rank throw the same structured error at the watch that agrees
  // on the death: no contract failure escapes the run.
  const AbortRun run = run_plan_ft(core::ReduceMode::all_to_all,
                                    {{fault::Phase::mid_map, 4, 2}});
  expect_all_failed(run, {4}, fault::Kind::unrecoverable);
}

TEST(CcFt, EveryAggregatorDeadIsUnrecoverableOnEveryAliveRank) {
  // Both aggregators (ranks 0 and 4) die entering the second crash watch:
  // the agreement reports both, nobody is left to absorb their domains,
  // and every alive rank throws unrecoverable in either reduce mode.
  for (const auto mode :
       {core::ReduceMode::all_to_one, core::ReduceMode::all_to_all}) {
    const AbortRun run =
        run_plan_ft(mode, {{fault::Phase::crash_watch, 0, 2},
                            {fault::Phase::crash_watch, 4, 2}});
    expect_all_failed(run, {0, 4}, fault::Kind::unrecoverable);
  }
}

TEST(CcFt, DeathInsideFinalReplanStaysStructured) {
  // Rank 4's role dies at a swept time and rank 2's process dies inside
  // the replan that follows. A role death detected only at the final watch
  // puts rank 2's death after the last watch verdict, where only the
  // settle agreement sees it. Whenever rank 2 dies, the all_to_all run
  // cannot finish: every alive rank throws unrecoverable, and nothing else
  // escapes the run.
  const double end = run_plan_ft(core::ReduceMode::all_to_all, {}).elapsed;
  for (int i = 1; i <= 20; ++i) {
    fault::ChaosEvent crash;
    crash.kind = fault::Kind::aggregator_crash;
    crash.subject = 4;
    crash.at = end * i / 20;
    AbortRun run;
    ASSERT_NO_THROW(run = run_plan_ft(core::ReduceMode::all_to_all,
                                      {{fault::Phase::replan, 2, 1}}, {crash}))
        << "crash at " << crash.at;
    if (run.finished[2] != 0) {
      for (int p = 0; p < kProcs; ++p) {
        EXPECT_NE(run.finished[static_cast<std::size_t>(p)], 0)
            << "rank " << p << " crash at " << crash.at;
      }
    } else {
      expect_all_failed(run, {2}, fault::Kind::unrecoverable);
    }
  }
}

// ---------------- fault.* metric cardinality ----------------

TEST(FaultMetrics, PerRankCountersAggregateIntoHistogramAboveCap) {
  des::Engine eng;
  trace::Tracer tr;
  tr.attach(eng);
  {
    // Small world: full per-rank detail counters.
    fault::Injector inj{fault::ChaosSchedule{}};
    inj.set_world_size(8);
    inj.note_rank_crash(5);
    inj.note_net_retry(3);
  }
  EXPECT_EQ(tr.metrics().counters().at("fault.rank.crashes.rank5").value(),
            1u);
  EXPECT_EQ(tr.metrics().counters().at("fault.net.retries.rank3").value(),
            1u);
  {
    // 1024 ranks: the same observations land in bounded rank-bucket
    // histograms instead of 1024 distinct counter names.
    fault::Injector inj{fault::ChaosSchedule{}};
    inj.set_world_size(1024);
    inj.note_rank_crash(700);
    inj.note_crash_detected(700);
    inj.note_net_retry(900);
  }
  EXPECT_EQ(tr.metrics().counters().count("fault.rank.crashes.rank700"), 0u);
  EXPECT_EQ(tr.metrics().counters().count("fault.net.retries.rank900"), 0u);
  EXPECT_EQ(tr.metrics().histogram("fault.rank.crashes_by_rank", {}).total(),
            1u);
  EXPECT_EQ(
      tr.metrics().histogram("fault.rank.crash_detections_by_rank", {})
          .total(),
      1u);
  EXPECT_EQ(tr.metrics().histogram("fault.net.retries_by_rank", {}).total(),
            1u);
  // The aggregate counters still carry the totals.
  EXPECT_EQ(tr.metrics().counters().at("fault.rank.crashes").value(), 2u);
  tr.detach();
}

// ---------------- collective flush under a crash ----------------

TEST(StageFt, CrashInsideCollectiveFlushDegradesOnSurvivors) {
  constexpr int np = 4;
  mpi::MachineConfig cfg;
  cfg.cores_per_node = 2;
  mpi::Runtime rt(cfg, np);
  fault::ChaosConfig cc;
  cc.seed = chaos_seed();
  fault::ChaosSchedule sched(cc, rt.n_nodes(), np, 8);
  sched.add_crash_point({fault::Phase::flush_collective, 2, 1});
  rt.install_chaos(std::move(sched));
  auto file = rt.fs().create("wb", std::make_unique<pfs::MemStore>(1 << 16));
  std::vector<std::vector<std::byte>> blocks(np);
  std::vector<std::uint64_t> degraded(np, 0);
  std::vector<std::uint64_t> dirty_after(np, 1);
  rt.run([&](mpi::Comm& c) {
    stage::StageConfig scfg;
    scfg.wb_collective_flush = true;
    stage::StagingArea sa(c, scfg);
    const auto i = static_cast<std::size_t>(c.rank());
    blocks[i].assign(1024, std::byte{static_cast<unsigned char>(c.rank() + 1)});
    sa.wb_write(file, static_cast<std::uint64_t>(1024 * c.rank()), blocks[i]);
    sa.wb_flush_collective(file);  // rank 2 dies at entry
    degraded[i] = sa.stats().wb_degraded_flushes;
    dirty_after[i] = sa.wb_dirty_bytes();
  });
  std::vector<std::byte> got(1024);
  for (int r = 0; r < np; ++r) {
    const auto i = static_cast<std::size_t>(r);
    rt.fs().store(file).read(static_cast<std::uint64_t>(1024 * r), got);
    if (r == 2) {
      // The dead rank's staged extent never reached the PFS — lost with
      // the process, not silently half-written.
      EXPECT_NE(got, blocks[i]);
      continue;
    }
    // Every survivor drained its extents despite the dead flush partner,
    // and left no stale staged bytes behind.
    EXPECT_EQ(got, blocks[i]) << "rank " << r;
    EXPECT_EQ(degraded[i], 1u) << "rank " << r;
    EXPECT_EQ(dirty_after[i], 0u) << "rank " << r;
  }
  EXPECT_EQ(rt.chaos()->stats().rank_crashes, 1u);
}

}  // namespace
}  // namespace colcom
