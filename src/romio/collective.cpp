#include "romio/collective.hpp"

#include "mpi/runtime.hpp"

#include <algorithm>
#include <cstring>

#include "check/check.hpp"
#include "fault/chaos.hpp"
#include "fault/fault.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"

namespace colcom::romio {

namespace {
constexpr int kReadDataTag = -2100;
constexpr int kWriteDataTag = -2200;
int read_tag(const Hints& h) { return kReadDataTag - h.context * 16; }
int write_tag(const Hints& h) { return kWriteDataTag - h.context * 16; }

[[maybe_unused]] const bool kTagsRegistered = [] {
  for (int ctx = 0; ctx < 8; ++ctx) {
    const std::string suffix = "(ctx " + std::to_string(ctx) + ")";
    check::register_tag(kReadDataTag - ctx * 16, "romio.read" + suffix);
    check::register_tag(kWriteDataTag - ctx * 16, "romio.write" + suffix);
  }
  return true;
}();

/// Packs `pieces` of the chunk buffer (which covers file range starting at
/// `chunk_lo`) into a contiguous wire buffer.
std::vector<std::byte> pack_pieces(std::span<const std::byte> chunk_buf,
                                   std::uint64_t chunk_lo,
                                   const std::vector<Piece>& pieces) {
  std::uint64_t total = 0;
  for (const auto& p : pieces) total += p.len;
  std::vector<std::byte> out(total);
  std::uint64_t pos = 0;
  for (const auto& p : pieces) {
    std::memcpy(out.data() + pos, chunk_buf.data() + (p.file_off - chunk_lo),
                p.len);
    pos += p.len;
  }
  return out;
}
}  // namespace

namespace {
/// Bounded independent re-read of one extent after the collective read's
/// PFS retry budget ran out. Each attempt is a fresh request (the PFS
/// re-rolls its transient-fault decision per request), so a handful of
/// attempts recovers any transiently failing extent; a persistently failing
/// one rethrows the last fault::Error.
des::Completion fallback_read(pfs::Pfs& fs, pfs::FileId file,
                              std::uint64_t offset, std::span<std::byte> dst) {
  constexpr int kFallbackAttempts = 4;
  for (int i = 0;; ++i) {
    try {
      return fs.read_async(file, offset, dst);
    } catch (const fault::Error&) {
      if (i + 1 >= kFallbackAttempts) throw;
    }
  }
}

/// Write-side twin of fallback_read: bounded independent retries of one
/// extent after the collective write's retry budget ran out.
des::Completion fallback_write(pfs::Pfs& fs, pfs::FileId file,
                               std::uint64_t offset,
                               std::span<const std::byte> src) {
  constexpr int kFallbackAttempts = 4;
  for (int i = 0;; ++i) {
    try {
      return fs.write_async(file, offset, src);
    } catch (const fault::Error&) {
      if (i + 1 >= kFallbackAttempts) throw;
    }
  }
}
}  // namespace

void ChunkReader::issue(pfs::Pfs& fs, pfs::FileId file,
                        const std::vector<FlatRequest>& domain_requests,
                        pfs::ByteExtent chunk, std::vector<std::byte>& buf,
                        std::uint64_t sieve_gap, double now,
                        fault::Injector* chaos) {
  chunk_ = chunk;
  pending_.clear();
  extents_.clear();
  bytes_ = 0;
  issued_at_ = now;
  done_at_ = now;
  issued_ = true;
  buf.resize(chunk.length);
  if (chunk.length == 0) return;
  extents_ = chunk_read_extents(domain_requests, chunk, sieve_gap);
  for (const auto& e : extents_) {
    const auto dst =
        std::span<std::byte>(buf).subspan(e.offset - chunk.offset, e.length);
    try {
      pending_.push_back(fs.read_async(file, e.offset, dst));
    } catch (const fault::Error&) {
      // Degrade to independent I/O for this extent instead of aborting the
      // whole collective read.
      pending_.push_back(fallback_read(fs, file, e.offset, dst));
      ++fallbacks_;
      if (chaos != nullptr) chaos->note_io_fallback();
    }
    bytes_ += e.length;
  }
}

void ChunkReader::wait() {
  COLCOM_EXPECT(issued_);
  for (const auto& c : pending_) {
    c.wait();
    done_at_ = std::max(done_at_, c.ready_at());
  }
}

double ChunkReader::service_time() const { return done_at_ - issued_at_; }

CollectiveStats CollectiveIo::read_all(mpi::Comm& comm, pfs::FileId file,
                                       const FlatRequest& mine,
                                       std::span<std::byte> dst) {
  COLCOM_EXPECT(dst.size() >= mine.total_bytes());
  TRACE_SPAN(comm.engine(), "romio", "read_all");
  CollectiveStats stats;
  const double t_begin = comm.wtime();
  TwoPhasePlan plan = build_plan(comm, mine, hints_);
  stats.plan_s = comm.wtime() - t_begin;
  const int my_agg = plan.aggregator_index(comm.rank());
  auto& fs = comm.runtime().fs();
  const double pack_bw = comm.runtime().config().pack_bw;

  // Aggregator state: double-buffered chunks for the pipelined variant.
  std::vector<std::byte> bufs[2];
  ChunkReader reader;
  auto issue_read = [&](int k) {
    reader.issue(fs, file, plan.domain_requests, plan.chunk(my_agg, k),
                 bufs[k % 2], hints_.sieve_gap, comm.wtime(),
                 comm.runtime().chaos());
  };

  if (my_agg >= 0) {
    stats.iters.resize(static_cast<std::size_t>(plan.n_iters));
    if (plan.n_iters > 0) issue_read(0);
  }

  for (int k = 0; k < plan.n_iters; ++k) {
    std::vector<mpi::Request> sends;
    if (my_agg >= 0) {
      auto& is = stats.iters[static_cast<std::size_t>(k)];
      const pfs::ByteExtent c = reader.chunk();
      TRACE_COUNT(comm.engine(), ::colcom::trace::Track::ranks,
                  "romio.aggregation_rounds", 1);
      const double wait_begin = comm.wtime();
      {
        TRACE_SPAN(comm.engine(), "romio", "io");
        reader.wait();
      }
      is.stall_s = comm.wtime() - wait_begin;
      is.read_s = reader.service_time();
      is.read_bytes = reader.bytes_read();
      const std::span<const std::byte> chunk_buf(bufs[k % 2]);

      // Nonblocking two-phase: fetch the next chunk while shuffling this one.
      if (hints_.pipelined && k + 1 < plan.n_iters) issue_read(k + 1);

      const double shuffle_begin = comm.wtime();
      {
        TRACE_SPAN(comm.engine(), "romio", "shuffle");
        if (c.length > 0) {
          for (int r = 0; r < comm.size(); ++r) {
            const auto pieces =
                plan.domain_requests[static_cast<std::size_t>(r)].intersect(
                    c.offset, c.offset + c.length);
            if (pieces.empty()) continue;
            std::vector<std::byte> wire = pack_pieces(chunk_buf, c.offset,
                                                      pieces);
            const std::uint64_t n = wire.size();
            is.shuffle_bytes += n;
            TRACE_COUNT(comm.engine(), ::colcom::trace::Track::ranks,
                        "romio.shuffle_bytes", n);
            // Pack cost (sys time) at the aggregator.
            comm.overhead(static_cast<double>(n) / pack_bw);
            sends.push_back(
                comm.isend(r, read_tag(hints_), std::move(wire)));
          }
        }
        // Receive own pieces below, then account the shuffle completion.
        receive_for_iteration(comm, plan, mine, dst, k, stats);
        mpi::wait_all(sends);
      }
      is.shuffle_s = comm.wtime() - shuffle_begin;
      if (!hints_.pipelined && k + 1 < plan.n_iters) issue_read(k + 1);
    } else {
      TRACE_SPAN(comm.engine(), "romio", "shuffle");
      receive_for_iteration(comm, plan, mine, dst, k, stats);
    }
  }
  stats.total_s = comm.wtime() - t_begin;
  return stats;
}

void CollectiveIo::receive_for_iteration(mpi::Comm& comm,
                                         const TwoPhasePlan& plan,
                                         const FlatRequest& mine,
                                         std::span<std::byte> dst, int k,
                                         CollectiveStats& stats) {
  // Post every expected receive up front (ROMIO posts all irecvs then
  // waits); each aggregator's payload lands straight in the user buffer,
  // one segment per piece.
  struct Incoming {
    std::uint64_t total = 0;
    mpi::Request req;
  };
  std::vector<Incoming> incoming;
  for (int a = 0; a < plan.aggregator_count(); ++a) {
    const pfs::ByteExtent c = plan.chunk(a, k);
    if (c.length == 0) continue;
    const auto pieces = mine.intersect(c.offset, c.offset + c.length);
    if (pieces.empty()) continue;
    Incoming in;
    std::vector<mpi::Segment> segs;
    segs.reserve(pieces.size());
    for (const auto& p : pieces) {
      segs.push_back({p.buf_off, p.len});
      in.total += p.len;
    }
    in.req = comm.irecv(plan.aggregators[static_cast<std::size_t>(a)],
                        read_tag(hints_), dst, std::move(segs));
    incoming.push_back(std::move(in));
  }
  // Unpack cost (sys time) of ROMIO's copy out of its receive buffer.
  const double unpack_bw = comm.runtime().config().memcpy_bw;
  for (auto& in : incoming) {
    in.req.wait();
    COLCOM_ENSURE(in.req.info().bytes == in.total);
    comm.overhead(static_cast<double>(in.total) / unpack_bw);
    stats.bytes_moved += in.total;
  }
}

CollectiveStats CollectiveIo::write_all(mpi::Comm& comm, pfs::FileId file,
                                        const FlatRequest& mine,
                                        std::span<const std::byte> src) {
  COLCOM_EXPECT(src.size() >= mine.total_bytes());
  TRACE_SPAN(comm.engine(), "romio", "write_all");
  CollectiveStats stats;
  const double t_begin = comm.wtime();
  TwoPhasePlan plan = build_plan(comm, mine, hints_);
  stats.plan_s = comm.wtime() - t_begin;
  const int my_agg = plan.aggregator_index(comm.rank());
  auto& fs = comm.runtime().fs();
  const double pack_bw = comm.runtime().config().pack_bw;

  std::vector<std::byte> chunk_buf;
  for (int k = 0; k < plan.n_iters; ++k) {
    // Everyone ships its pieces of each aggregator's current chunk.
    std::vector<mpi::Request> sends;
    for (int a = 0; a < plan.aggregator_count(); ++a) {
      const pfs::ByteExtent c = plan.chunk(a, k);
      if (c.length == 0) continue;
      const auto pieces = mine.intersect(c.offset, c.offset + c.length);
      if (pieces.empty()) continue;
      std::uint64_t total = 0;
      for (const auto& p : pieces) total += p.len;
      std::vector<std::byte> wire(total);
      std::uint64_t pos = 0;
      for (const auto& p : pieces) {
        std::memcpy(wire.data() + pos, src.data() + p.buf_off, p.len);
        pos += p.len;
      }
      comm.overhead(static_cast<double>(total) / pack_bw);
      stats.bytes_moved += total;
      sends.push_back(comm.isend(plan.aggregators[static_cast<std::size_t>(a)],
                                 write_tag(hints_), std::move(wire)));
    }

    if (my_agg >= 0) {
      auto& is = ensure_iter(stats, plan.n_iters, k);
      const pfs::ByteExtent c = plan.chunk(my_agg, k);
      if (c.length > 0) {
        TRACE_COUNT(comm.engine(), ::colcom::trace::Track::ranks,
                    "romio.aggregation_rounds", 1);
        const double shuffle_begin = comm.wtime();
        {
          TRACE_SPAN(comm.engine(), "romio", "shuffle");
          chunk_buf.resize(c.length);
          // Collect pieces from every contributing rank (deterministic
          // order); track coverage to decide whether a pre-read is needed.
          std::uint64_t covered = 0;
          std::vector<std::pair<const FlatRequest*, int>> contributors;
          for (int r = 0; r < comm.size(); ++r) {
            const auto& req = plan.domain_requests[static_cast<std::size_t>(r)];
            const auto pieces = req.intersect(c.offset, c.offset + c.length);
            if (pieces.empty()) continue;
            for (const auto& p : pieces) covered += p.len;
            contributors.emplace_back(&req, r);
          }
          const bool holes = covered < c.length;
          if (holes) {
            // Read-modify-write (ROMIO's data sieving on the write path).
            const double t0 = comm.wtime();
            {
              TRACE_SPAN(comm.engine(), "romio", "io");
              try {
                fs.read(file, c.offset, chunk_buf);
              } catch (const fault::Error&) {
                fallback_read(fs, file, c.offset, chunk_buf).wait();
                ++stats.io_fallbacks;
                if (auto* chaos = comm.runtime().chaos(); chaos != nullptr) {
                  chaos->note_io_fallback();
                }
              }
            }
            is.read_s += comm.wtime() - t0;
            is.read_bytes += c.length;
          }
          for (const auto& [req, r] : contributors) {
            const auto pieces = req->intersect(c.offset, c.offset + c.length);
            // The contributor's pieces land straight in the chunk buffer.
            std::uint64_t total = 0;
            std::vector<mpi::Segment> segs;
            segs.reserve(pieces.size());
            for (const auto& p : pieces) {
              segs.push_back({p.file_off - c.offset, p.len});
              total += p.len;
            }
            const auto info =
                comm.recv(r, write_tag(hints_), chunk_buf, std::move(segs));
            COLCOM_ENSURE(info.bytes == total);
            is.shuffle_bytes += total;
            TRACE_COUNT(comm.engine(), ::colcom::trace::Track::ranks,
                        "romio.shuffle_bytes", total);
          }
        }
        is.shuffle_s += comm.wtime() - shuffle_begin;
        const double w0 = comm.wtime();
        {
          TRACE_SPAN(comm.engine(), "romio", "io");
          try {
            fs.write(file, c.offset, chunk_buf);
          } catch (const fault::Error&) {
            // Degrade to independent stripe-sized writes instead of failing
            // the collective: each is a fresh request with fresh retry
            // budget, so transient OST faults cannot lose the chunk.
            const std::uint64_t stripe = fs.config().stripe_size;
            fault::Injector* chaos = comm.runtime().chaos();
            for (std::uint64_t pos = 0; pos < c.length; pos += stripe) {
              const std::uint64_t len = std::min(stripe, c.length - pos);
              fallback_write(
                  fs, file, c.offset + pos,
                  std::span<const std::byte>(chunk_buf).subspan(pos, len))
                  .wait();
              ++stats.io_fallbacks;
              if (chaos != nullptr) chaos->note_io_fallback();
            }
          }
        }
        is.read_s += comm.wtime() - w0;  // I/O phase time (write side)
        is.read_bytes += c.length;
      }
    }
    mpi::wait_all(sends);
  }
  stats.total_s = comm.wtime() - t_begin;
  return stats;
}

IterStat& CollectiveIo::ensure_iter(CollectiveStats& stats, int n_iters,
                                    int k) {
  if (stats.iters.empty()) {
    stats.iters.resize(static_cast<std::size_t>(n_iters));
  }
  return stats.iters[static_cast<std::size_t>(k)];
}

}  // namespace colcom::romio
