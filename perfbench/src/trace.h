// Outside-in span recording for the traced benchmark run.
//
// Spans are recorded by the benchmark's own decorators and call-site
// wrappers around each layer's public functions (the program is not
// instrumented). Each span carries a name, steady-clock start and end, the
// span that caused it, and the id of the operation it belongs to. Spans
// stay in memory and are written out when the run ends.
//
// Parentage: a span opened on a thread that already has an open span is its
// child. A span opened on a thread with none (an ExecutionCore worker, a
// transport reader) hangs under the operation root installed by
// Tracer::OperationScope — the benchmark's closed loops run one operation at
// a time, so that root is exactly the call that fanned the work out.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< Static string: "<layer>.<call>".
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root.
  uint64_t op = 0;      ///< Operation id shared by one operation's spans.

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The tracer spans record into, or nullptr in untraced runs (every
  /// recording helper is then a no-op).
  static Tracer* Active();
  /// Installs `tracer` process-wide (nullptr uninstalls).
  static void SetActive(Tracer* tracer);

  /// RAII span: records [construction, destruction) under the current
  /// parent. Free when no tracer is active.
  class Scoped {
   public:
    explicit Scoped(const char* name);
    ~Scoped();
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

    uint64_t id() const { return span_.id; }

   private:
    Tracer* tracer_;
    Span span_;
    uint64_t saved_parent_ = 0;
    uint64_t saved_op_ = 0;
  };

  /// A span ended on another thread than the one that opened it: an async
  /// call timed from issue to completion. The constructor takes the name,
  /// start, parent and operation on the issuing thread without making the
  /// span that thread's parent; End() records it, from any thread.
  class Detached {
   public:
    explicit Detached(const char* name);
    void End();

   private:
    Tracer* tracer_;
    Span span_;
  };

  /// Opens a root span named `name` for a new operation and makes it the
  /// parent of spans opened on threads with no span of their own, until
  /// destruction.
  class OperationScope {
   public:
    explicit OperationScope(const char* name);
    ~OperationScope();
    OperationScope(const OperationScope&) = delete;
    OperationScope& operator=(const OperationScope&) = delete;

   private:
    Tracer* tracer_;
    uint64_t saved_root_ = 0;
    uint64_t saved_op_ = 0;
    uint64_t saved_thread_parent_ = 0;
    uint64_t saved_thread_op_ = 0;
    std::optional<Scoped> root_;
  };

  /// Counts an event that has no duration (async issues, byte totals).
  void Count(const std::string& name, double amount = 1);

  std::vector<Span> spans() const;
  /// Spans recorded after the first `mark` (a value size() returned).
  std::vector<Span> SpansSince(size_t mark) const;
  size_t size() const;
  std::map<std::string, double> counters() const;

  /// One JSON object per line: {"name","start_ns","end_ns","id","parent",
  /// "op"}.
  mlcask::Status WriteJsonl(const std::string& path) const;

 private:
  void Record(const Span& span);

  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> next_op_{1};
  std::atomic<uint64_t> root_{0};
  std::atomic<uint64_t> op_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
};

/// Self time per span id: duration minus the part of its interval that its
/// children cover (children clipped to the parent, overlaps merged).
std::map<uint64_t, double> SelfTimeMs(const std::vector<Span>& spans);

/// Aggregates over spans of one name.
std::vector<double> DurationsMs(const std::vector<Span>& spans,
                                const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
