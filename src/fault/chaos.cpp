#include "fault/chaos.hpp"

#include <algorithm>
#include <string>

#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/prng.hpp"

namespace colcom::fault {

const char* to_string(Layer layer) {
  switch (layer) {
    case Layer::des: return "des";
    case Layer::net: return "net";
    case Layer::mpi: return "mpi";
    case Layer::pfs: return "pfs";
    case Layer::romio: return "romio";
    case Layer::core: return "core";
    case Layer::stream: return "stream";
    case Layer::stage: return "stage";
    case Layer::ncio: return "ncio";
  }
  return "?";
}

const char* to_string(Kind kind) {
  switch (kind) {
    case Kind::link_degraded: return "link_degraded";
    case Kind::msg_loss: return "msg_loss";
    case Kind::straggler: return "straggler";
    case Kind::aggregator_crash: return "aggregator_crash";
    case Kind::ost_timeout: return "ost_timeout";
    case Kind::retry_exhausted: return "retry_exhausted";
    case Kind::rank_failed: return "rank_failed";
    case Kind::slice_aborted: return "slice_aborted";
    case Kind::root_failed: return "root_failed";
    case Kind::unrecoverable: return "unrecoverable";
    case Kind::producer_failed: return "producer_failed";
    case Kind::data_corrupt: return "data_corrupt";
  }
  return "?";
}

const char* to_string(Phase phase) {
  switch (phase) {
    case Phase::plan_exchange: return "plan_exchange";
    case Phase::crash_watch: return "crash_watch";
    case Phase::flush_collective: return "flush_collective";
    case Phase::mid_map: return "mid_map";
    case Phase::replan: return "replan";
    case Phase::submit: return "submit";
    case Phase::stream_publish: return "stream_publish";
  }
  return "?";
}

void chaos_flip(std::span<std::byte> span, std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (std::size_t i = 0; i < span.size(); i += 257) {
    span[i] ^= static_cast<std::byte>(sm.next() | 1);
  }
}

ChaosSchedule::ChaosSchedule(const ChaosConfig& cfg, int n_nodes, int nprocs,
                             int n_links)
    : cfg_(cfg) {
  COLCOM_EXPECT(n_nodes >= 1 && nprocs >= 1 && n_links >= 0);
  COLCOM_EXPECT(cfg.msg_loss_prob >= 0 && cfg.msg_loss_prob <= 1);
  COLCOM_EXPECT(cfg.degrade_factor > 0 && cfg.degrade_factor <= 1);
  COLCOM_EXPECT(cfg.straggler_factor >= 1);
  COLCOM_EXPECT(cfg.ack_timeout_s > 0 && cfg.backoff >= 1);
  COLCOM_EXPECT(cfg.max_retries >= 0);
  // One generator, fixed draw order: the event list is a pure function of
  // (config, machine shape).
  Prng rng(cfg.seed);
  for (int i = 0; i < cfg.degraded_links && n_links > 0; ++i) {
    events_.push_back(ChaosEvent{
        Kind::link_degraded,
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n_links))),
        rng.next_double(0, cfg.horizon_s), cfg.degrade_duration_s,
        cfg.degrade_factor});
  }
  for (int i = 0; i < cfg.stragglers; ++i) {
    events_.push_back(ChaosEvent{
        Kind::straggler,
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(nprocs))),
        rng.next_double(0, cfg.horizon_s), cfg.straggler_duration_s,
        cfg.straggler_factor});
  }
  for (int i = 0; i < cfg.aggregator_crashes; ++i) {
    events_.push_back(ChaosEvent{
        Kind::aggregator_crash,
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(nprocs))),
        rng.next_double(0, cfg.horizon_s), 0, 0});
  }
  std::stable_sort(events_.begin(), events_.end(),
                   [](const ChaosEvent& a, const ChaosEvent& b) {
                     return a.at < b.at;
                   });
}

double ChaosSchedule::link_factor(int link_id, des::SimTime t) const {
  double factor = 1.0;
  for (const ChaosEvent& ev : events_) {
    if (ev.kind != Kind::link_degraded || ev.subject != link_id) continue;
    if (t >= ev.at && t < ev.at + ev.duration) {
      factor = std::min(factor, ev.magnitude);
    }
  }
  return factor;
}

double ChaosSchedule::cpu_factor(int rank, des::SimTime t) const {
  double factor = 1.0;
  for (const ChaosEvent& ev : events_) {
    if (ev.kind != Kind::straggler || ev.subject != rank) continue;
    if (t >= ev.at && t < ev.at + ev.duration) {
      factor = std::max(factor, ev.magnitude);
    }
  }
  return factor;
}

bool ChaosSchedule::aggregator_crashed(int rank, des::SimTime t) const {
  for (const ChaosEvent& ev : events_) {
    if (ev.kind == Kind::aggregator_crash && ev.subject == rank &&
        ev.at <= t) {
      return true;
    }
  }
  return false;
}

bool ChaosSchedule::drop_transfer(int src_rank, int dst_rank,
                                  std::uint64_t seq, int salt,
                                  int attempt) const {
  if (cfg_.msg_loss_prob <= 0) return false;
  // Mix every key through distinct odd multipliers so (src, dst, seq, salt,
  // attempt) tuples land on independent rolls; SplitMix64 scrambles the sum.
  SplitMix64 sm(cfg_.seed ^
                (seq * 0x9e3779b97f4a7c15ull +
                 static_cast<std::uint64_t>(src_rank) * 0xbf58476d1ce4e5b9ull +
                 static_cast<std::uint64_t>(dst_rank) * 0x94d049bb133111ebull +
                 static_cast<std::uint64_t>(salt) * 1099511628211ull +
                 static_cast<std::uint64_t>(attempt) * 40503ull));
  const double roll = static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
  return roll < cfg_.msg_loss_prob;
}

bool ChaosSchedule::corrupt_extent(int layer_salt, std::uint64_t a,
                                   std::uint64_t b, int attempt) const {
  double prob = 0;
  switch (layer_salt) {
    case 0: prob = cfg_.cache_rot_prob; break;
    case 1: prob = cfg_.wb_torn_prob; break;
    case 2: prob = cfg_.stream_corrupt_prob; break;
    case 3: prob = cfg_.ckpt_corrupt_prob; break;
    default: prob = 0; break;
  }
  if (prob <= 0) return false;
  // One roll decides the extent's fate; the attempt index only bounds how
  // long the corruption persists (FaultyStore-style), so recovery either
  // converges within `corrupt_attempts` or exhausts its budget — never
  // flickers between independent rolls.
  if (attempt >= cfg_.corrupt_attempts) return false;
  SplitMix64 sm(cfg_.seed ^
                (a * 0x9e3779b97f4a7c15ull +
                 b * 0xbf58476d1ce4e5b9ull +
                 static_cast<std::uint64_t>(layer_salt) * 0x94d049bb133111ebull +
                 0x2545f4914f6cdd1dull));
  const double roll = static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
  return roll < prob;
}

bool ChaosSchedule::crash_at(Phase phase, int rank, int entry_no) const {
  for (const CrashPoint& cp : crash_points_) {
    if (cp.phase == phase && cp.rank == rank && cp.hit == entry_no) {
      return true;
    }
  }
  return false;
}

bool ChaosSchedule::has_aggregator_crashes() const {
  return std::any_of(events_.begin(), events_.end(), [](const ChaosEvent& e) {
    return e.kind == Kind::aggregator_crash;
  });
}

bool ChaosSchedule::has_stragglers() const {
  return std::any_of(events_.begin(), events_.end(), [](const ChaosEvent& e) {
    return e.kind == Kind::straggler;
  });
}

bool ChaosSchedule::has_degraded_links() const {
  return std::any_of(events_.begin(), events_.end(), [](const ChaosEvent& e) {
    return e.kind == Kind::link_degraded;
  });
}

namespace {
void bump(const char* name) {
  if (trace::Tracer* tr = trace::Tracer::current()) {
    tr->metrics().counter(name).add(1);
  }
}
}  // namespace

void Injector::per_rank(const char* base, const char* hist, int rank) {
  if (rank < 0) return;
  trace::Tracer* tr = trace::Tracer::current();
  if (tr == nullptr) return;
  if (nprocs_ > 0 && nprocs_ <= kPerRankMetricCap) {
    tr->metrics()
        .counter(std::string(base) + ".rank" + std::to_string(rank))
        .add(1);
  } else {
    // Fixed power-of-two rank buckets: cardinality is O(log nprocs)
    // regardless of world size.
    tr->metrics()
        .histogram(hist, {0, 1, 3, 7, 15, 31, 63, 127, 255, 511, 1023, 2047,
                          4095})
        .observe(static_cast<double>(rank));
  }
}

void Injector::note_drop() {
  ++stats_.msgs_dropped;
  bump("fault.net.msgs_dropped");
}
void Injector::note_net_retry(int src_rank) {
  ++stats_.net_retries;
  bump("fault.net.retries");
  per_rank("fault.net.retries", "fault.net.retries_by_rank", src_rank);
}
void Injector::note_net_failure() {
  ++stats_.net_failures;
  bump("fault.net.failures");
}
void Injector::note_degraded_transfer() {
  ++stats_.degraded_transfers;
  bump("fault.net.degraded_transfers");
}
void Injector::note_straggler_hit() {
  ++stats_.straggler_hits;
  bump("fault.cpu.straggler_hits");
}
void Injector::note_replan() {
  ++stats_.replans;
  bump("fault.agg.replans");
}
void Injector::note_absorbed_chunk() {
  ++stats_.absorbed_chunks;
  bump("fault.agg.absorbed_chunks");
}
void Injector::note_io_fallback() {
  ++stats_.io_fallbacks;
  bump("fault.pfs.io_fallbacks");
}
void Injector::note_checkpoint() {
  ++stats_.checkpoints;
  bump("fault.ckpt.checkpoints");
}
void Injector::note_restore() {
  ++stats_.restores;
  bump("fault.ckpt.restores");
}
void Injector::note_stage_invalidation() {
  ++stats_.stage_invalidations;
  bump("fault.stage.invalidations");
}
void Injector::note_rank_crash(int rank) {
  ++stats_.rank_crashes;
  bump("fault.rank.crashes");
  per_rank("fault.rank.crashes", "fault.rank.crashes_by_rank", rank);
}
void Injector::note_crash_detected(int rank) {
  ++stats_.crash_detections;
  bump("fault.rank.crash_detections");
  per_rank("fault.rank.crash_detections",
           "fault.rank.crash_detections_by_rank", rank);
}
void Injector::note_agreement_round() {
  ++stats_.agreement_rounds;
  bump("fault.agree.rounds");
}
void Injector::note_warm_chunk(std::uint64_t records,
                               std::uint64_t bytes_saved) {
  ++stats_.warm_chunks;
  stats_.warm_records += records;
  stats_.warm_bytes_saved += bytes_saved;
  bump("fault.agg.warm_chunks");
  if (trace::Tracer* tr = trace::Tracer::current()) {
    tr->metrics().counter("fault.agg.warm_records").add(records);
    tr->metrics().counter("fault.agg.warm_bytes_saved").add(bytes_saved);
  }
}

void Injector::note_job_abort() {
  ++stats_.job_aborts;
  bump("fault.svc.job_aborts");
}

void Injector::note_svc_retry() {
  ++stats_.svc_retries;
  bump("fault.svc.retries");
}
void Injector::note_svc_failure() {
  ++stats_.svc_failures;
  bump("fault.svc.failures");
}
void Injector::note_svc_shed() {
  ++stats_.svc_shed;
  bump("fault.svc.shed");
}
void Injector::note_corruption_injected(const char* layer) {
  ++stats_.corruptions_injected;
  bump("fault.corrupt.injected");
  if (trace::Tracer* tr = trace::Tracer::current()) {
    tr->metrics()
        .counter(std::string("fault.corrupt.injected.") + layer)
        .add(1);
  }
}

}  // namespace colcom::fault
