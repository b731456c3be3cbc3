// MRAPI mutex (§2B.3, Listing 4).
//
// Differences from std::mutex that matter to the runtime layered on top:
//  * created against a domain-wide key, shared by name between nodes;
//  * optionally recursive, in which case each acquisition returns a LockKey
//    that must be presented, innermost-first, at release (the MRAPI model);
//  * lock takes a millisecond timeout (kTimeoutInfinite blocks).
//
// One 32-bit state word carries the lock (libgomp's three-state futex
// mutex: unlocked / locked / locked with parked waiters) plus a retired bit.
// An uncontended lock is one acquire CAS; unlock is one release exchange
// and enters the kernel only when a waiter has parked.  Owner and depth are
// written by the holder alone.  See DESIGN.md §15.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/status.hpp"
#include "mrapi/types.hpp"

namespace ompmca::mrapi {

class Mutex {
 public:
  explicit Mutex(MutexAttributes attrs = {}) : attrs_(attrs) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  const MutexAttributes& attributes() const { return attrs_; }

  /// Blocks up to @p timeout_ms.  On success *key identifies this
  /// acquisition (depth for recursive mutexes).
  Status lock(Timeout timeout_ms, LockKey* key);

  /// Single attempt; kMutexLocked when unavailable.
  Status trylock(LockKey* key);

  /// Releases the acquisition identified by @p key.  Errors:
  /// kMutexNotLocked (not held), kMutexKeyInvalid (wrong key / wrong owner /
  /// out-of-order release of a recursive mutex).
  Status unlock(const LockKey& key);

  /// Atomically checks the mutex is unheld and marks it deleted, closing
  /// the check-then-erase window of Database::mutex_delete: a lock()
  /// racing the delete either completes first (retire fails with
  /// kMutexLocked) or observes the retired state (kMutexIdInvalid).
  /// Outstanding waiters are woken and fail with kMutexIdInvalid.
  Status retire();

  /// True once retire() succeeded (stale-handle detection).
  bool retired() const {
    return (state_.load(std::memory_order_acquire) & kRetired) != 0;
  }

  /// Observational only (racy by nature); used by tests and metadata.
  bool locked() const {
    return (state_.load(std::memory_order_acquire) & kHeldMask) != kUnlocked;
  }

  /// Observational only: true while the holder must wake a parked waiter
  /// at release (a waiter announced itself and may be asleep).
  bool has_waiters() const {
    return (state_.load(std::memory_order_acquire) & kHeldMask) == kWaiters;
  }

 private:
  // state_ values.  kHeldMask selects the lock state; kRetired is sticky
  // and only ever set on an unlocked word.
  static constexpr std::uint32_t kUnlocked = 0;
  static constexpr std::uint32_t kLocked = 1;
  static constexpr std::uint32_t kWaiters = 2;
  static constexpr std::uint32_t kHeldMask = 3;
  static constexpr std::uint32_t kRetired = 4;

  /// Everything after a failed fast-path CAS that observed @p seen:
  /// retirement, recursion, the fault point, and parking.
  Status lock_slow(Timeout timeout_ms, LockKey* key, std::uint32_t seen,
                   bool* contended);
  /// Records a fresh outermost acquisition by the calling thread.
  void take_ownership(LockKey* key);
  /// Frees the word and wakes one parked waiter if any announced itself.
  void release_word();

  MutexAttributes attrs_;
  std::atomic<std::uint32_t> state_{kUnlocked};
  // Holder's per-thread token (0 when free).  Written only by the holder;
  // other threads read it relaxed, and a thread can only ever see its own
  // token there while it holds the mutex.
  std::atomic<std::uintptr_t> owner_{0};
  // Acquisition depth; read and written only by the holder (the state
  // word's acquire/release orders it between successive holders).
  std::uint32_t depth_ = 0;
};

}  // namespace ompmca::mrapi
