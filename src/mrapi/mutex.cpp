#include "mrapi/mutex.hpp"

#if !defined(__linux__)
#error "mrapi::Mutex parks its waiters on a Linux futex"
#endif

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <climits>
#include <ctime>

#include "check/check.hpp"
#include "common/time.hpp"
#include "fault/fault.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace ompmca::mrapi {

namespace {

static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t) &&
                  std::atomic<std::uint32_t>::is_always_lock_free,
              "the futex syscall operates on the atomic's own storage");

// Its address identifies the calling thread among live threads; a
// zero-initialised thread_local needs no per-access init guard.
thread_local char t_owner_anchor;

std::uintptr_t self_token() {
  return reinterpret_cast<std::uintptr_t>(&t_owner_anchor);
}

std::uint32_t* futex_addr(std::atomic<std::uint32_t>& word) {
  return reinterpret_cast<std::uint32_t*>(&word);
}

/// Sleeps while @p word still reads @p expected, for at most @p rel
/// (nullptr: no limit).  Returns on wake, timeout, signal or a changed
/// word alike; the caller re-reads the word and decides.
void futex_wait(std::atomic<std::uint32_t>& word, std::uint32_t expected,
                const timespec* rel) {
  syscall(SYS_futex, futex_addr(word), FUTEX_WAIT_PRIVATE, expected, rel,
          nullptr, 0);
}

void futex_wake(std::atomic<std::uint32_t>& word, int waiters) {
  syscall(SYS_futex, futex_addr(word), FUTEX_WAKE_PRIVATE, waiters, nullptr,
          nullptr, 0);
}

}  // namespace

Status Mutex::lock(Timeout timeout_ms, LockKey* key) {
  obs::ScopedTimer timer(obs::Hist::kMrapiMutexAcquireNs);
  const std::uint64_t t0 = obs::trace::enabled() ? monotonic_nanos() : 0;
  if (key == nullptr) return Status::kInvalidArgument;
  bool contended = false;
  Status s = Status::kSuccess;
  std::uint32_t seen = kUnlocked;
  if (state_.compare_exchange_strong(seen, kLocked, std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
    // Fault injection simulates a timeout on the blocking acquire path
    // only; trylock keeps its exact semantics so lock-free fast paths stay
    // deterministic under chaos schedules.  Here the word was free, so the
    // injected timeout hands it straight back.
    if (timeout_ms != kTimeoutImmediate &&
        OMPMCA_FAULT_POINT(kMrapiMutexAcquire)) {
      release_word();
      return Status::kTimeout;
    }
    take_ownership(key);
  } else {
    s = lock_slow(timeout_ms, key, seen, &contended);
  }
  if (t0 != 0 && s == Status::kSuccess) {
    obs::trace::complete(obs::trace::Type::kMutexAcquire, t0,
                         contended ? 1 : 0);
  }
  return s;
}

Status Mutex::trylock(LockKey* key) {
  if (key == nullptr) return Status::kInvalidArgument;
  std::uint32_t seen = kUnlocked;
  if (state_.compare_exchange_strong(seen, kLocked, std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
    take_ownership(key);
    return Status::kSuccess;
  }
  bool contended = false;
  return lock_slow(kTimeoutImmediate, key, seen, &contended);
}

void Mutex::take_ownership(LockKey* key) {
  owner_.store(self_token(), std::memory_order_relaxed);
  depth_ = 1;
  key->value = 1;
  obs::count(obs::Counter::kMrapiMutexAcquire);
  OMPMCA_CHECK_ACQUIRE(check::LockClass::kMrapiMutex, this, 0);
}

Status Mutex::lock_slow(Timeout timeout_ms, LockKey* key, std::uint32_t seen,
                        bool* contended) {
  if ((seen & kRetired) != 0) {
    OMPMCA_CHECK_USE_AFTER_DELETE(check::LockClass::kMrapiMutex, this);
    return Status::kMutexIdInvalid;
  }
  // Only this thread ever stores its own token, so seeing it means this
  // thread holds the mutex.
  if (owner_.load(std::memory_order_relaxed) == self_token()) {
    if (!attrs_.recursive) {
      // A non-recursive MRAPI mutex reports the relock instead of
      // self-deadlocking.
      return Status::kMutexLocked;
    }
    ++depth_;
    key->value = depth_;
    obs::count(obs::Counter::kMrapiMutexAcquire);
    OMPMCA_CHECK_ACQUIRE(check::LockClass::kMrapiMutex, this, 0);
    return Status::kSuccess;
  }
  if (timeout_ms != kTimeoutImmediate &&
      OMPMCA_FAULT_POINT(kMrapiMutexAcquire)) {
    return Status::kTimeout;
  }
  obs::count(obs::Counter::kMrapiMutexContended);
  *contended = true;
  if (timeout_ms == kTimeoutImmediate) return Status::kMutexLocked;

  const std::uint64_t deadline =
      timeout_ms == kTimeoutInfinite
          ? 0
          : monotonic_nanos() + std::uint64_t{timeout_ms} * 1'000'000u;
  std::uint32_t c = seen;
  for (;;) {
    // Retirement also ends the wait, so parked threads fail fast instead
    // of sleeping on a deleted mutex forever.
    if ((c & kRetired) != 0) {
      OMPMCA_CHECK_USE_AFTER_DELETE(check::LockClass::kMrapiMutex, this);
      return Status::kMutexIdInvalid;
    }
    if (c == kUnlocked) {
      // Taken as kWaiters: other threads may still be parked, and only
      // that state makes our unlock wake one of them.
      if (state_.compare_exchange_weak(c, kWaiters, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
        break;
      }
      continue;
    }
    if (c == kLocked &&
        !state_.compare_exchange_weak(c, kWaiters, std::memory_order_relaxed,
                                      std::memory_order_relaxed)) {
      continue;
    }
    timespec rel{};
    const timespec* relp = nullptr;
    if (deadline != 0) {
      const std::uint64_t now = monotonic_nanos();
      if (now >= deadline) return Status::kTimeout;
      const std::uint64_t left = deadline - now;
      rel.tv_sec = static_cast<time_t>(left / 1'000'000'000u);
      rel.tv_nsec = static_cast<long>(left % 1'000'000'000u);
      relp = &rel;
    }
    futex_wait(state_, kWaiters, relp);
    c = state_.load(std::memory_order_relaxed);
  }
  take_ownership(key);
  return Status::kSuccess;
}

void Mutex::release_word() {
  if (state_.exchange(kUnlocked, std::memory_order_release) == kWaiters) {
    futex_wake(state_, 1);
  }
}

Status Mutex::unlock(const LockKey& key) {
  const std::uint32_t c = state_.load(std::memory_order_relaxed);
  if ((c & kRetired) != 0) {
    OMPMCA_CHECK_USE_AFTER_DELETE(check::LockClass::kMrapiMutex, this);
    return Status::kMutexIdInvalid;
  }
  if ((c & kHeldMask) == kUnlocked) {
    OMPMCA_CHECK_DOUBLE_UNLOCK(check::LockClass::kMrapiMutex, this);
    return Status::kMutexNotLocked;
  }
  if (owner_.load(std::memory_order_relaxed) != self_token()) {
    OMPMCA_CHECK_UNLOCK_NOT_OWNER(check::LockClass::kMrapiMutex, this);
    return Status::kMutexKeyInvalid;
  }
  // Recursive acquisitions must be released innermost-first.
  if (key.value != depth_) {
    OMPMCA_CHECK_UNLOCK_NOT_OWNER(check::LockClass::kMrapiMutex, this);
    return Status::kMutexKeyInvalid;
  }
  --depth_;
  OMPMCA_CHECK_RELEASE(check::LockClass::kMrapiMutex, this);
  if (depth_ == 0) {
    owner_.store(0, std::memory_order_relaxed);
    release_word();
  }
  return Status::kSuccess;
}

Status Mutex::retire() {
  std::uint32_t c = kUnlocked;
  if (state_.compare_exchange_strong(c, kRetired, std::memory_order_acq_rel,
                                     std::memory_order_relaxed)) {
    // A released word may still have parked waiters (unlock woke one);
    // every one of them must wake to see the retired bit.
    futex_wake(state_, INT_MAX);
    return Status::kSuccess;
  }
  return (c & kRetired) != 0 ? Status::kMutexIdInvalid : Status::kMutexLocked;
}

}  // namespace ompmca::mrapi
