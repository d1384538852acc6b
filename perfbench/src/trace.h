#ifndef AFFINITY_PERFBENCH_TRACE_H_
#define AFFINITY_PERFBENCH_TRACE_H_

/// \file trace.h
/// In-memory span recorder for the traced benchmark run. Spans are opened
/// in the benchmark's own code around each call into an engine layer;
/// nothing inside the engine is instrumented. Each thread appends to its
/// own buffer (no locking on the hot path) and the buffers are collected
/// after every thread has been joined.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace affinity::perfbench {

/// One finished span. `parent` indexes the collected span list (-1 for a
/// root); `request` is the row number for writes, the query id for reads.
struct SpanRecord {
  const char* name = "";
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
  std::uint32_t thread = 0;
};

/// Nanoseconds on the steady clock.
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds on the steady clock.
inline double NowSeconds() { return static_cast<double>(NowNs()) * 1e-9; }

class Tracer {
 public:
  static Tracer& Get() {
    static Tracer tracer;
    return tracer;
  }

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Every span recorded so far, parents resolved to indices in the
  /// returned list. Call only when no thread is recording.
  std::vector<SpanRecord> Collect() const;

 private:
  friend class ScopedSpan;

  struct ThreadBuffer {
    std::uint32_t thread = 0;
    std::vector<SpanRecord> spans;  ///< parent holds a buffer-local index
    std::vector<std::int64_t> open;  ///< indices of spans still open
  };

  ThreadBuffer& Local();

  std::atomic<bool> enabled_{false};
  std::mutex mutex_;  ///< guards buffers_ (registration only)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// Records one span over its lifetime when tracing is on at construction;
/// otherwise it does nothing. `request` 0 inherits the enclosing span's.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Names the span after the fact — an append is a refresh only once
  /// the call returns and says so.
  void Rename(const char* name);

 private:
  Tracer::ThreadBuffer* buffer_ = nullptr;
  std::int64_t index_ = -1;
};

}  // namespace affinity::perfbench

#endif  // AFFINITY_PERFBENCH_TRACE_H_
