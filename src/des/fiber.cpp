#include "des/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <new>

#include "util/assert.hpp"

// AddressSanitizer must be told about stack switches: its instrumentation
// poisons stack frames on scope exit, and exception unwinding only unpoisons
// the stack it believes is current. Without these annotations, a throw that
// unwinds frames on a fiber stack leaves stale scope poison behind, and the
// next run through the same stack depth reports a bogus stack-use-after-scope.
// The hooks compile to nothing when ASan is off.
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define COLCOM_ASAN_FIBERS 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define COLCOM_ASAN_FIBERS 1
#endif

#if defined(COLCOM_ASAN_FIBERS)
#include <sanitizer/common_interface_defs.h>
#endif

namespace colcom::des {

namespace {

#if defined(COLCOM_ASAN_FIBERS)
inline void asan_start_switch(void** save, const void* bottom,
                              std::size_t size) {
  __sanitizer_start_switch_fiber(save, bottom, size);
}
inline void asan_finish_switch(void* save, const void** bottom,
                               std::size_t* size) {
  __sanitizer_finish_switch_fiber(save, bottom, size);
}
#else
inline void asan_start_switch(void**, const void*, std::size_t) {}
inline void asan_finish_switch(void*, const void**, std::size_t*) {}
#endif

}  // namespace

Fiber* Fiber::current_ = nullptr;

// makecontext() can only pass int arguments portably, so the target fiber is
// handed to the trampoline through this static slot. The engine is
// single-threaded, which makes this safe: the slot is written immediately
// before the one swapcontext() that consumes it.
namespace {
Fiber* g_trampoline_target = nullptr;
}

Fiber::Fiber(std::size_t stack_bytes, std::function<void()> body)
    : body_(std::move(body)) {
  COLCOM_EXPECT(stack_bytes >= 16 * 1024);
  COLCOM_EXPECT(body_ != nullptr);
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  stack_bytes_ = (stack_bytes + page - 1) / page * page;
  mapping_bytes_ = stack_bytes_ + page;
  // MAP_NORESERVE: no swap is set aside and no page is committed until it
  // is first written, so untouched stack depth costs nothing.
  void* m = mmap(nullptr, mapping_bytes_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1,
                 0);
  if (m == MAP_FAILED) throw std::bad_alloc();
  mapping_ = static_cast<std::byte*>(m);
  // Stacks grow down: the guard is the lowest page.
  if (mprotect(mapping_, page, PROT_NONE) != 0) {
    munmap(mapping_, mapping_bytes_);
    throw std::bad_alloc();
  }
  stack_ = mapping_ + page;
}

Fiber::~Fiber() { munmap(mapping_, mapping_bytes_); }

void Fiber::trampoline() {
  Fiber* self = g_trampoline_target;
  // First time on this stack: complete the switch resume() started and learn
  // the scheduler's stack bounds (finish reports the stack we came from).
  asan_finish_switch(nullptr, &self->sched_stack_bottom_,
                     &self->sched_stack_size_);
  try {
    self->body_();
  } catch (...) {
    self->exception_ = std::current_exception();
  }
  self->finished_ = true;
  // Fall back to the scheduler; uc_link returns there, but swap explicitly so
  // `current_` is maintained. save=nullptr: this fiber's fake stack can be
  // destroyed, the context never runs again.
  current_ = nullptr;
  asan_start_switch(nullptr, self->sched_stack_bottom_,
                    self->sched_stack_size_);
  swapcontext(&self->ctx_, &self->return_ctx_);
}

void Fiber::resume() {
  COLCOM_EXPECT_MSG(current_ == nullptr,
                    "resume() must be called from the scheduler context");
  COLCOM_EXPECT_MSG(!finished_, "cannot resume a finished fiber");
  if (!started_) {
    started_ = true;
    getcontext(&ctx_);
    ctx_.uc_stack.ss_sp = stack_;
    ctx_.uc_stack.ss_size = stack_bytes_;
    ctx_.uc_link = &return_ctx_;
    makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 0);
    g_trampoline_target = this;
  }
  current_ = this;
  void* fake = nullptr;
  asan_start_switch(&fake, stack_, stack_bytes_);
  swapcontext(&return_ctx_, &ctx_);
  asan_finish_switch(fake, nullptr, nullptr);
  current_ = nullptr;
}

void Fiber::yield() {
  COLCOM_EXPECT_MSG(current_ == this, "yield() must be called from the fiber");
  current_ = nullptr;
  void* fake = nullptr;
  asan_start_switch(&fake, sched_stack_bottom_, sched_stack_size_);
  swapcontext(&ctx_, &return_ctx_);
  asan_finish_switch(fake, nullptr, nullptr);
  current_ = this;
}

}  // namespace colcom::des
