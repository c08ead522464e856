// Sharded sliding-window aggregation over asynchronous streams: the
// Section 1.1 reduction (see src/core/async_window.h) composed with the
// sharded ingest driver (src/driver/sharded_driver.h).
//
// Elements are (v, t) pairs observed in arbitrary timestamp order, possibly
// by many producer threads at once. Each observation is stored as the
// correlated tuple (x = v, y = t_max - t) and hash-partitioned *by v*
// across S shard sketches — the split under which the supported aggregates
// decompose exactly — so ingest scales across the driver's shard threads
// while every sliding-window query stays a single prefix query with a
// query-time cutoff.
//
// Queries mirror the driver's unified API: QueryWindow / QuerySince take
// the driver's QueryOptions and return QueryAnswer{estimate, epochs}:
//   * QueryMode::kBlocking (the default): drain the queues, republish, and
//     answer over every observation handed in before the call.
//   * QueryMode::kSnapshot: answer from the published shard snapshots
//     without quiescing ingest.
//     The answer covers a recent batch-boundary prefix of the observation
//     stream — stale by at most snapshot_interval_batches per shard plus
//     queue depth, with the covered publishes reported in the answer's
//     epoch vector — which is exactly the watermark semantics of
//     asynchronous stream monitoring: late data was already the norm.
//
// Validation (timestamp domain, watermark-past-observations) is shared with
// the unsharded AsyncSlidingWindow via the helpers in async_window.h, so
// both classes surface identical Status codes on identical inputs
// (tests/sharded_window_test.cc pins this).
#ifndef CASTREAM_DRIVER_SHARDED_WINDOW_H_
#define CASTREAM_DRIVER_SHARDED_WINDOW_H_

#include <atomic>
#include <cstdint>
#include <utility>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/core/async_window.h"
#include "src/core/correlated_sketch.h"
#include "src/driver/sharded_driver.h"

namespace castream {

/// \brief Sliding-window aggregation over an out-of-order timestamped
/// stream, sharded across the driver's ingest threads. `t_max` bounds
/// timestamps; options.y_max is raised to cover it.
template <SketchFamilyFactory Factory>
class ShardedAsyncWindow {
 public:
  using Summary = CorrelatedSketch<Factory>;

  ShardedAsyncWindow(const CorrelatedSketchOptions& options, Factory factory,
                     uint64_t t_max,
                     const ShardedDriverOptions& driver_options = {})
      : t_max_(t_max),
        driver_(driver_options,
                [opts = WithTimestampDomain(options, t_max),
                 factory = std::move(factory)] {
                  return Summary(opts, factory);
                }) {}

  /// \brief A per-thread producer handle (wraps a driver Writer). One
  /// Observer must be used by one thread at a time; any number may feed the
  /// same window concurrently.
  class Observer {
   public:
    /// \brief Observes value v stamped t (any arrival order; t <= t_max).
    Status Observe(uint64_t v, uint64_t t) {
      CASTREAM_RETURN_NOT_OK(ValidateAsyncTimestamp(t, window_->t_max_));
      window_->NoteObserved(t);
      writer_.Insert(v, window_->t_max_ - t);
      return Status::OK();
    }

    /// \brief Hands buffered observations to the shard queues (does not
    /// wait for ingest; the window's Flush does).
    void Flush() { writer_.Flush(); }

   private:
    friend class ShardedAsyncWindow;
    explicit Observer(ShardedAsyncWindow& window)
        : window_(&window), writer_(window.driver_.MakeWriter()) {}

    ShardedAsyncWindow* window_;
    typename ShardedDriver<Summary>::Writer writer_;
  };

  Observer MakeObserver() { return Observer(*this); }

  /// \brief Single-producer convenience Observe on the driver-owned writer.
  /// Not thread-safe against itself; concurrent producers use MakeObserver.
  Status Observe(uint64_t v, uint64_t t) {
    CASTREAM_RETURN_NOT_OK(ValidateAsyncTimestamp(t, t_max_));
    NoteObserved(t);
    driver_.Insert(v, t_max_ - t);
    return Status::OK();
  }

  /// \brief Drains every queued observation into the shard sketches and —
  /// once snapshot serving is armed — republishes their snapshots
  /// (external Observers must Flush themselves first — the window cannot
  /// see their private buffers).
  void Flush() { driver_.Flush(); }

  /// \brief The unified window aggregate over {v : watermark - window < t
  /// <= watermark}: mode per the driver's QueryOptions, answer with
  /// per-shard snapshot-epoch provenance. The watermark must be at or past
  /// every observed timestamp (see async_window.h). A zero-width window
  /// answers 0 without touching the driver (no epochs: nothing was
  /// merged). After Flush(), a snapshot-mode answer equals the blocking
  /// one bit-for-bit.
  Result<QueryAnswer> QueryWindow(uint64_t watermark, uint64_t window,
                                  const QueryOptions& options = {}) {
    if (window == 0) return QueryAnswer{};
    CASTREAM_ASSIGN_OR_RETURN(
        const uint64_t cutoff,
        AsyncWindowCutoff(watermark, window, t_max_, max_observed_t()));
    CASTREAM_ASSIGN_OR_RETURN(QueryAnswer answer,
                              driver_.Query(cutoff, options));
    return GuardWatermark(watermark, std::move(answer));
  }

  /// \brief The unified since-aggregate over all elements with t >= since
  /// (see QueryWindow for options/answer semantics).
  Result<QueryAnswer> QuerySince(uint64_t since,
                                 const QueryOptions& options = {}) {
    if (since > t_max_) return QueryAnswer{};
    return driver_.Query(t_max_ - since, options);
  }

  /// \brief The largest timestamp any observer has recorded so far.
  uint64_t max_observed_t() const {
    return max_observed_t_.load(std::memory_order_acquire);
  }

  uint64_t t_max() const { return t_max_; }

  /// \brief The underlying sharded driver, for staleness/merge diagnostics
  /// (shard epochs, merge counter, tuples processed).
  ShardedDriver<Summary>& driver() { return driver_; }
  const ShardedDriver<Summary>& driver() const { return driver_; }

 private:
  static CorrelatedSketchOptions WithTimestampDomain(
      CorrelatedSketchOptions o, uint64_t t_max) {
    o.y_max = std::max(o.y_max, t_max);
    return o;
  }

  /// \brief Post-query watermark re-validation. The pre-check in
  /// AsyncWindowCutoff races concurrent Observers: one can deliver a
  /// timestamp past the watermark after the check but before the answer is
  /// assembled, and such an element would be counted inside the window's
  /// prefix cutoff. Observers record NoteObserved *before* handing the
  /// element to the driver, so any such element visible in the answer is
  /// also visible here — rejecting after the fact restores the unsharded
  /// class's contract (query a watermark only once it is final).
  Result<QueryAnswer> GuardWatermark(uint64_t watermark,
                                     QueryAnswer answer) const {
    if (watermark < max_observed_t()) {
      return Status::InvalidArgument(
          "watermark precedes an observed timestamp; sliding-window queries "
          "address the most recent window only");
    }
    return answer;
  }

  /// \brief Monotone max over concurrent observers.
  void NoteObserved(uint64_t t) {
    uint64_t seen = max_observed_t_.load(std::memory_order_relaxed);
    while (t > seen && !max_observed_t_.compare_exchange_weak(
                           seen, t, std::memory_order_acq_rel,
                           std::memory_order_relaxed)) {
    }
  }

  uint64_t t_max_;
  std::atomic<uint64_t> max_observed_t_{0};
  ShardedDriver<Summary> driver_;
};

}  // namespace castream

#endif  // CASTREAM_DRIVER_SHARDED_WINDOW_H_
