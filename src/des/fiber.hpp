// Cooperative user-level fibers (ucontext-based) for DES actors.
//
// The engine is strictly single-threaded: exactly one fiber (or the main
// scheduler context) runs at any instant, and control transfers only at
// explicit resume/yield points. That makes every data structure in the
// simulation race-free by construction (CP.2) without any locking.
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <exception>
#include <functional>

namespace colcom::des {

/// A single cooperative fiber. Not copyable/movable: the ucontext captures
/// the object address.
///
/// The stack is an anonymous mapping reserved without commitment: a page
/// costs host memory only once the fiber touches it, so a rank that runs a
/// few KB deep holds a few KB however large `stack_bytes` is. One
/// inaccessible guard page sits below the usable stack, so an overflow
/// faults instead of overwriting a neighbouring allocation.
class Fiber {
 public:
  /// `body` runs on the fiber's own stack when resume() is first called.
  /// `stack_bytes` is the usable stack (rounded up to whole pages); the
  /// guard page comes on top.
  Fiber(std::size_t stack_bytes, std::function<void()> body);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Transfers control from the scheduler into the fiber; returns when the
  /// fiber yields or finishes. Must not be called from inside a fiber.
  void resume();

  /// Transfers control back to the scheduler. Must be called from inside
  /// this fiber.
  void yield();

  bool finished() const { return finished_; }

  /// If the body exited with an exception, it is captured here.
  std::exception_ptr exception() const { return exception_; }

  /// Fiber currently executing, or nullptr when in the scheduler context.
  static Fiber* current() { return current_; }

 private:
  static void trampoline();

  ucontext_t ctx_{};
  ucontext_t return_ctx_{};
  std::byte* mapping_ = nullptr;  ///< guard page, then the usable stack
  std::size_t mapping_bytes_ = 0;
  std::byte* stack_ = nullptr;    ///< lowest usable byte, above the guard
  std::size_t stack_bytes_ = 0;
  std::function<void()> body_;
  bool started_ = false;
  bool finished_ = false;
  std::exception_ptr exception_;
  // Scheduler-context stack bounds as reported by ASan at first entry —
  // handed back to __sanitizer_start_switch_fiber when yielding, so ASan
  // tracks which stack is live across swapcontext (unused without ASan).
  const void* sched_stack_bottom_ = nullptr;
  std::size_t sched_stack_size_ = 0;

  static Fiber* current_;
};

}  // namespace colcom::des
