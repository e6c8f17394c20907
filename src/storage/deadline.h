#ifndef MLCASK_STORAGE_DEADLINE_H_
#define MLCASK_STORAGE_DEADLINE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string_view>

#include "common/status.h"

namespace mlcask::storage {

/// The remaining time budget of one in-flight request, shared by every hop
/// the request fans out into. A budget shrinks two ways:
///
///   * real elapsed time since construction (wall-clock truth), and
///   * explicit accounting charges (Charge), one per completed round-trip
///     phase of a fan-out.
///
/// remaining_ms() is total − max(elapsed, accounted), so the budget a hop
/// stamps on its downstream calls STRICTLY decreases across phases even in
/// a test that completes faster than the clock ticks — the deadline-shrink
/// invariant is proven by accounting, not timing, exactly like the
/// fan-out-overlap proof in TwoPhaseStats::max_inflight_round_trips.
class DeadlineBudget {
 public:
  explicit DeadlineBudget(uint64_t total_ms)
      : total_ms_(total_ms),
        start_(std::chrono::steady_clock::now()) {}

  uint64_t total_ms() const { return total_ms_; }

  /// Milliseconds left: total − max(real elapsed, accounted); 0 = expired.
  uint64_t remaining_ms() const;
  bool expired() const { return remaining_ms() == 0; }

  /// Folds the real elapsed time observed so far into the accounted total,
  /// then adds `ms` on top. After a Charge, remaining_ms() is strictly
  /// below every value it returned before the Charge (until exhaustion).
  void Charge(uint64_t ms);

 private:
  uint64_t elapsed_ms() const;

  const uint64_t total_ms_;
  const std::chrono::steady_clock::time_point start_;
  mutable std::mutex mu_;
  uint64_t accounted_ms_ = 0;
};

/// RAII ambient budget: installs `budget` as the calling thread's current
/// deadline for the scope's lifetime (nesting restores the previous one).
/// The request encoders read the ambient budget to stamp outgoing calls,
/// and the sharded router charges it between fan-out phases — so deadline
/// propagation needs no signature changes anywhere in between.
class DeadlineScope {
 public:
  explicit DeadlineScope(DeadlineBudget* budget);
  ~DeadlineScope();
  DeadlineScope(const DeadlineScope&) = delete;
  DeadlineScope& operator=(const DeadlineScope&) = delete;

  /// The innermost budget installed on this thread; nullptr when none.
  static DeadlineBudget* Current();
  /// Remaining ms of the ambient budget; 0 when none installed (or spent).
  static uint64_t CurrentRemainingMs();
  /// Charges the ambient budget, if one is installed.
  static void ChargeCurrent(uint64_t ms);
  /// Ok, or a typed DeadlineExceeded naming `what` when the ambient budget
  /// is installed and spent. Fan-outs call this before issuing a phase so
  /// an already-dead request never burns more round trips.
  static Status CheckCurrent(const char* what);

 private:
  DeadlineBudget* prev_;
};

/// Cheap deadline peek at a serialized storage request: the binary codec's
/// deadline meta tag. Returns 0 when absent (no deadline, or not a binary
/// message). Transports record this stamp into their stats
/// (TransportStats::hop_budgets_ms) — the observable ledger the
/// deadline-shrink tests assert on — and servers use it to drop
/// queue-expired jobs before they execute.
uint64_t PeekRequestDeadlineMs(std::string_view request);

}  // namespace mlcask::storage

#endif  // MLCASK_STORAGE_DEADLINE_H_
