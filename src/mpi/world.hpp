// Internal shared state of the rank world: mailboxes, matching, sequencing.
// Not part of the public API.
#pragma once

#include <array>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "des/completion.hpp"
#include "mpi/comm.hpp"
#include "mpi/runtime.hpp"

namespace colcom::mpi {

/// Per-message header bytes charged on the wire (envelope + protocol).
constexpr std::uint64_t kMsgHeaderBytes = 64;

/// Tags below this are reserved for internal collective algorithms.
constexpr int kCollectiveTagBase = -1000;

/// Loss-roll salts separating the three retransmittable wire legs of one
/// message (fault::ChaosSchedule::drop_transfer).
constexpr int kSaltEager = 0;
constexpr int kSaltRts = 1;
constexpr int kSaltPayload = 2;

struct Msg {
  int src = -1;
  int tag = 0;
  std::uint64_t seq = 0;
  std::vector<std::byte> payload;
  /// Large messages use a rendezvous protocol: only a request-to-send
  /// travels eagerly; the payload moves after the receive is matched
  /// (clear-to-send), and the sender's request completes with the payload.
  bool rendezvous = false;
  std::shared_ptr<des::CompletionSource> send_done;  // rendezvous only
  std::uint64_t trace_flow = 0;  ///< flow-arrow id, 0 when tracing is off
  std::uint64_t check_id = 0;    ///< checker envelope id, 0 when checking off
  /// Payload checksum sampled at post time (CHK-SUM); travels with the
  /// envelope because the sender's SendRec is erased at match time.
  std::uint64_t check_sum = 0;
  /// Set when the chaos retransmit budget ran out: the message is delivered
  /// poisoned so both endpoints observe fault::Error instead of deadlocking.
  bool failed = false;
};

struct PostedRecv {
  int src = kAnySource;
  int tag = kAnyTag;
  std::span<std::byte> dst;
  /// Segments of `dst` filled in order; empty = all of `dst`, contiguous.
  std::vector<Segment> segs;
  bool matched = false;
  bool failed = false;  ///< matched a poisoned message; wait() throws
  bool dead_peer = false;  ///< recv_ft declared the source process dead
  MsgInfo info;
  std::unique_ptr<des::CompletionSource> cs;
};

struct PairChannel {
  std::uint64_t next_send_seq = 0;
  std::uint64_t next_deliver_seq = 0;
  std::map<std::uint64_t, std::shared_ptr<Msg>> holdback;
};

struct Mailbox {
  std::deque<std::shared_ptr<Msg>> unexpected;
  std::deque<std::shared_ptr<PostedRecv>> posted;
};

struct World {
  Runtime* rt = nullptr;
  int nprocs = 0;
  std::vector<Mailbox> mailbox;                       // per dst rank
  std::unordered_map<std::uint64_t, PairChannel> chans;  // key src*n+dst
  std::vector<Comm> comms;                            // per rank

  /// ULFM-style death registry: dead[r] != 0 once rank r's process crashed
  /// at a control-plane crash point. Written synchronously by kill_rank(),
  /// read by Comm::recv_ft's failure-detection timer and by Comm::alive().
  std::vector<char> dead;
  /// Per-rank, per-fault::Phase entry counters driving crash points
  /// (indexed by static_cast<int>(Phase)).
  std::vector<std::array<int, 7>> phase_hits;

  /// Marks `rank` dead, bumps fault.rank.* metrics and emits a trace
  /// instant. Idempotent.
  void kill_rank(int rank);

  PairChannel& chan(int src, int dst) {
    return chans[static_cast<std::uint64_t>(src) *
                     static_cast<std::uint64_t>(nprocs) +
                 static_cast<std::uint64_t>(dst)];
  }

  static bool matches(int want_src, int want_tag, const Msg& m) {
    return (want_src == kAnySource || want_src == m.src) &&
           (want_tag == kAnyTag || want_tag == m.tag);
  }

  /// Called in event context when a message's transfer (or its RTS)
  /// completes; enforces per-pair FIFO then matches or enqueues. Duplicate
  /// seqs (late-ack retransmissions under chaos) are dropped here.
  void deliver(int dst, std::shared_ptr<Msg> msg);

  /// Chaos path: ships `wire_bytes` from `src_rank` to `dst_rank` under the
  /// ack/timeout/backoff retransmit protocol. Each attempt rolls a
  /// deterministic loss decision; the sender arms an ack deadline (backed
  /// off per retry) and retransmits until the ack arrives or max_retries is
  /// spent. Exactly one terminal callback runs (event context, must not
  /// block): `on_acked` after delivery + ack, or `on_failed` past the
  /// budget. `on_delivered` runs once at first arrival (before the ack).
  void ship_with_retry(int src_rank, int dst_rank, std::uint64_t wire_bytes,
                       std::uint64_t seq, int salt,
                       std::function<void()> on_delivered,
                       std::function<void()> on_acked,
                       std::function<void()> on_failed);

  /// Completes a matched pair: eager messages copy out immediately;
  /// rendezvous messages run CTS + payload transfer first.
  void complete_match(int dst, std::shared_ptr<Msg> msg,
                      std::shared_ptr<PostedRecv> pr);

 private:
  void match_or_enqueue(int dst, std::shared_ptr<Msg> msg);
};

}  // namespace colcom::mpi
