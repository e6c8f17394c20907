#ifndef MLCASK_COMMON_SIM_CLOCK_H_
#define MLCASK_COMMON_SIM_CLOCK_H_

namespace mlcask {

/// A simulated clock measured in seconds.
///
/// The paper's evaluation reports wall-clock time on a specific GPU server.
/// This reproduction replaces wall time with a deterministic simulated clock:
/// every component charges its modeled execution cost and every storage
/// engine charges its modeled transfer cost against a SimClock. Benches then
/// report simulated seconds, which preserves the *shape* of the paper's
/// results (orderings, ratios, crossovers) while staying deterministic and
/// fast.
class SimClock {
 public:
  SimClock() = default;

  /// Current simulated time in seconds since the clock's epoch.
  double Now() const { return now_s_; }

  /// Advances the clock by `seconds` (>= 0).
  void Advance(double seconds) {
    if (seconds > 0) now_s_ += seconds;
  }

  /// Advances the clock to `seconds` if that is in the future; never moves
  /// backwards. Parallel runs use this to model one worker waiting for an
  /// artifact another worker finishes at a later virtual time.
  void AdvanceTo(double seconds) {
    if (seconds > now_s_) now_s_ = seconds;
  }

  /// Resets to t=0.
  void Reset() { now_s_ = 0; }

 private:
  double now_s_ = 0;
};

/// Accumulates the time-composition buckets the paper reports in Figs. 6/9:
/// pre-processing time, model-training time, and storage time.
struct TimeBreakdown {
  double preprocess_s = 0;
  double train_s = 0;
  double storage_s = 0;

  double Total() const { return preprocess_s + train_s + storage_s; }

  TimeBreakdown& operator+=(const TimeBreakdown& other) {
    preprocess_s += other.preprocess_s;
    train_s += other.train_s;
    storage_s += other.storage_s;
    return *this;
  }
};

}  // namespace mlcask

#endif  // MLCASK_COMMON_SIM_CLOCK_H_
