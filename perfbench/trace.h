#ifndef GEMREC_PERFBENCH_TRACE_H_
#define GEMREC_PERFBENCH_TRACE_H_

// In-memory span recorder for the traced benchmark run. Spans wrap the
// benchmark's own calls into each layer's public functions; the
// program under test is not instrumented. Recording is off unless
// Tracer::Enable(true) ran, and then costs two clock reads and one
// append to a per-thread buffer.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace gemrec::perfbench {

struct Span {
  const char* name = "";
  int64_t start_ns = 0;  // steady clock
  int64_t end_ns = 0;
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = root
  uint64_t request = 0;  // 0 = not request-scoped

  double duration_us() const { return (end_ns - start_ns) / 1000.0; }
};

class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled();

  /// Every span recorded so far, across threads, in no set order.
  static std::vector<Span> Collect();

  /// Writes one JSON object per span ({"name","start_ns","end_ns",
  /// "id","parent","request"}) to `path`; false on an I/O error.
  static bool WriteJsonLines(const std::string& path);

  /// Records a span whose times the caller took itself, under the
  /// thread's current span. No-op while disabled.
  static void Record(const char* name, int64_t start_ns, int64_t end_ns,
                     uint64_t request);

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
};

/// Records one span for its lifetime and makes itself the parent of
/// spans opened on the same thread meanwhile. No-op while disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
  bool active_ = false;
};

}  // namespace gemrec::perfbench

#endif  // GEMREC_PERFBENCH_TRACE_H_
