#ifndef INVERDA_OBS_TRACE_H_
#define INVERDA_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace inverda {
namespace obs {

/// One node of a per-operation trace tree. The access layer opens a span
/// per top-level operation ("scan" / "find" / "apply") and a span per
/// executed plan step ("derive" / "propagate"); kernel recursion through
/// the backend nests naturally, so a read at propagation distance d yields
/// one derive span per PlanStep with the next hop's scan underneath it.
///
/// Step spans carry the same fields EXPLAIN prints for the matching
/// PlanStep (SMO id + BiDEL text, Figure-6 route case, side/index, kernel,
/// aux bindings), so plan::RenderTrace can reuse the EXPLAIN step
/// formatter verbatim and a trace is directly comparable to the compiled
/// plan it executed.
struct TraceSpan {
  std::string name;   // "scan" | "find" | "apply" | "derive" | "propagate"
  std::string label;  // catalog TvLabel of the operated version

  // Step metadata (derive/propagate spans; smo == -1 otherwise).
  int64_t smo = -1;
  std::string route;     // "physical" | "forward" | "backward" | ""
  std::string side;      // "source" | "target" | ""
  int index = 0;
  std::string kernel;
  std::string smo_text;  // BiDEL text, as EXPLAIN prints it
  std::vector<std::pair<std::string, std::string>> aux;  // short -> physical

  // Fusion (plan/fused.h): number of SMO hops a fused step stands for
  // (0 on ordinary steps), the per-hop kernel name + BiDEL text, in plan
  // order, and the layout summary (ColumnLayout::Summary), so RenderTrace
  // prints the same fused[k] block as EXPLAIN.
  int fused = 0;
  std::vector<std::pair<std::string, std::string>> fused_hops;
  std::string fused_layout;

  std::string note;  // free-form marker, e.g. "view-cache hit"

  int64_t rows_in = 0;   // writes carried into this span
  int64_t rows_out = 0;  // rows produced by this span
  // Propagate spans: table rows the step's kernel read (storage RowsVisited),
  // nested propagate steps excluded.
  int64_t rows_visited = 0;
  int64_t start_ns = 0;  // monotonic clock, see obs::NowNanos
  int64_t duration_ns = 0;

  std::vector<TraceSpan> children;

  /// Number of spans in this subtree, including this one.
  int TotalSpans() const;

  /// Depth-first collection of every span named `name` in this subtree
  /// (used by tests to compare the derive chain against the plan's steps).
  void Collect(const std::string& name,
               std::vector<const TraceSpan*>* out) const;

  std::string ToJson() const;
};

/// Records per-operation trace trees into a bounded ring buffer of the
/// most recently completed traces.
///
/// Cost model: when disabled, every instrumentation site is one relaxed
/// atomic load and a branch (SpanGuard's constructor); nothing allocates.
/// When enabled, the span tree is built entirely in thread-local state —
/// the only shared structure is the ring buffer, locked once per completed
/// top-level trace.
///
/// Toggling is safe at any time (see trace_race_test): a trace in flight
/// when tracing is disabled still completes (its remaining child spans are
/// simply not recorded), and enabling mid-operation starts recording at
/// the next span boundary, which may publish a partial trace.
class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 32;

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const {
    if constexpr (!kObsBuild) return false;
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
    MirrorHotFlag(hot_flags_, hot_bit_, on);
  }

  /// Wired by Observability: set_enabled additionally mirrors the gate
  /// into the shared hot-flags word the access layer polls.
  void BindHotFlag(std::atomic<uint32_t>* flags, uint32_t bit) {
    hot_flags_ = flags;
    hot_bit_ = bit;
  }

  /// The most recently completed traces, newest first, at most `n` (and at
  /// most the ring capacity). Traces are shared snapshots: the returned
  /// trees stay valid after the ring evicts them.
  std::vector<std::shared_ptr<const TraceSpan>> Last(size_t n) const;

  /// Drops every buffered trace.
  void Clear();

  /// Total completed top-level traces since construction (not affected by
  /// Clear; exported as the "trace.completed" metric).
  int64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }

  size_t capacity() const { return capacity_; }
  void set_capacity(size_t n);

 private:
  friend class SpanGuard;

  /// Opens a span: the root of a new trace when the calling thread has no
  /// open trace on this tracer, a child of the innermost open span
  /// otherwise. Returns nullptr when recording is off or the thread is
  /// inside another tracer's trace.
  TraceSpan* Begin(const char* name);

  /// Closes `span` (must be the innermost open span); publishing the root
  /// into the ring when the trace completed.
  void End(TraceSpan* span);

  // The per-thread trace under construction. Pointers on the stack point
  // into the children vectors of their parents; only the innermost open
  // span's children vector ever grows, so the ancestors stay pinned.
  struct ThreadState {
    Tracer* owner = nullptr;
    std::unique_ptr<TraceSpan> root;
    std::vector<TraceSpan*> stack;
  };
  static thread_local ThreadState tls_;

  std::atomic<bool> enabled_{false};
  std::atomic<uint32_t>* hot_flags_ = nullptr;
  uint32_t hot_bit_ = 0;
  std::atomic<int64_t> completed_{0};
  mutable std::mutex mu_;  // guards ring_ and capacity_
  size_t capacity_ = kDefaultCapacity;
  std::deque<std::shared_ptr<const TraceSpan>> ring_;
};

/// RAII span: opens on construction (a single relaxed load + branch when
/// tracing is off), closes on destruction. Dereference only after checking
/// the guard: `if (span) span->label = ...`.
class SpanGuard {
 public:
  SpanGuard(Tracer* tracer, const char* name) {
    if constexpr (kObsBuild) {
      if (tracer != nullptr && tracer->enabled()) [[unlikely]] {
        span_ = tracer->Begin(name);
        if (span_ != nullptr) tracer_ = tracer;
      }
    }
  }
  ~SpanGuard() {
    if constexpr (kObsBuild) {
      if (span_ != nullptr) [[unlikely]] tracer_->End(span_);
    }
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  explicit operator bool() const { return span_ != nullptr; }
  TraceSpan* operator->() { return span_; }
  TraceSpan* get() { return span_; }

 private:
  Tracer* tracer_ = nullptr;
  TraceSpan* span_ = nullptr;
};

}  // namespace obs
}  // namespace inverda

#endif  // INVERDA_OBS_TRACE_H_
