// Structured fault errors — the contract between fault injection and the
// recovery paths above it.
//
// Layers that exhaust their recovery budget (OST retries, MPI retransmits)
// throw fault::Error instead of aborting through COLCOM_EXPECT, so callers
// one layer up can degrade gracefully: the collective-computing runtime
// falls back to independent I/O for a failing extent, and benches can report
// a structured failure instead of dying.
#pragma once

#include <stdexcept>
#include <string>

namespace colcom::fault {

/// Which layer of the stack detected the fault.
enum class Layer { des, net, mpi, pfs, romio, core, stream, stage, ncio };

/// What went wrong.
enum class Kind {
  link_degraded,     ///< a mesh link ran below nominal bandwidth
  msg_loss,          ///< a message was dropped in flight
  straggler,         ///< a rank ran slower than nominal
  aggregator_crash,  ///< an aggregator stopped serving its file domain
  ost_timeout,       ///< an OST request timed out
  retry_exhausted,   ///< a retry budget ran out
  rank_failed,       ///< a peer process died mid-operation (ULFM-style)
  slice_aborted,     ///< a recoverable slice failed; resubmit from `mid`
  root_failed,       ///< the reduction root's process died (not retryable)
  unrecoverable,     ///< no survivor can finish the job (not retryable)
  producer_failed,   ///< the streaming producer died with steps pending
  data_corrupt,      ///< checksum mismatch survived every recovery budget
};

const char* to_string(Layer layer);
const char* to_string(Kind kind);

/// A recoverable fault surfaced to the layer above. Catchable separately
/// from ContractViolation: contract violations are bugs, fault::Errors are
/// injected conditions the stack is expected to survive or report.
class Error : public std::runtime_error {
 public:
  Error(Layer layer, Kind kind, const std::string& what)
      : std::runtime_error(std::string(to_string(layer)) + ": " +
                           to_string(kind) + ": " + what),
        layer_(layer),
        kind_(kind) {}

  /// `rank_failed` errors carry the rank that died so callers can shrink
  /// around it.
  Error(Layer layer, Kind kind, int rank, const std::string& what)
      : Error(layer, kind, what) {
    rank_ = rank;
  }

  Layer layer() const { return layer_; }
  Kind kind() const { return kind_; }
  int rank() const { return rank_; }

 private:
  Layer layer_;
  Kind kind_;
  int rank_ = -1;
};

}  // namespace colcom::fault
