// Count-Min sketch (Cormode-Muthukrishnan): per-item frequency upper bounds
// with additive error eps*F1, minimum over depth rows.
//
// Role in this repository: the insert-only alternative to CountSketch for
// heavy-hitter style queries. CountSketch (used by Section 3.3's correlated
// heavy hitters) gives two-sided error ~sqrt(F2/width) and supports
// deletions; Count-Min gives a one-sided overestimate with error F1/width
// and is cheaper per update (no sign hash). Exposed so downstream users can
// assemble their own composite bucket sketches (see F2HeavyHitterBundle for
// the pattern).
#ifndef CASTREAM_SKETCH_COUNT_MIN_H_
#define CASTREAM_SKETCH_COUNT_MIN_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/hash/row_hasher.h"
#include "src/sketch/counter_matrix.h"
#include "src/sketch/sketch_params.h"

namespace castream {

class CountMinSketch;

/// \brief Factory for mergeable CountMinSketch instances (shared hashes).
class CountMinSketchFactory {
 public:
  CountMinSketchFactory(SketchDims dims, uint64_t seed)
      : hashes_(std::make_shared<RowHashSet>(seed, dims.depth, dims.width)) {}

  /// \brief Width for additive error eps * F1: w = ceil(e / eps), rounded
  /// to a power of two; depth = ceil(ln(1/delta)).
  static SketchDims DimsFor(double eps, double delta) {
    SketchDims d;
    const double w = std::ceil(2.718281828 / eps);
    d.width = static_cast<uint32_t>(
        NextPow2(static_cast<uint64_t>(std::max(16.0, w))));
    const double rows = std::ceil(std::log(1.0 / std::max(1e-12, delta)));
    d.depth = static_cast<uint32_t>(std::clamp(rows, 1.0, 12.0));
    return d;
  }

  CountMinSketch Create() const;

  /// \brief Computes x's per-row randomness once; the result feeds the
  /// Insert(PreHashed) overload of every sketch in this family (the sign
  /// bits are unused by Count-Min's unsigned counters).
  RowHashSet::PreHashed Prehash(uint64_t x) const {
    return hashes_->Prehash(x);
  }
  void Prehash(uint64_t x, RowHashSet::PreHashed& out) const {
    hashes_->Prehash(x, out);
  }

  uint32_t depth() const { return hashes_->depth(); }
  uint32_t width() const { return hashes_->width(); }

 private:
  friend class CountMinSketch;
  std::shared_ptr<const RowHashSet> hashes_;
};

/// \brief Insert-only frequency overestimator: truth <= estimate <=
/// truth + eps*F1 with probability 1 - delta.
class CountMinSketch {
 public:
  /// \brief Adds `weight` (must be >= 0: Count-Min's minimum rule is only
  /// an upper bound in the cash-register model) to item x.
  Status Insert(uint64_t x, int64_t weight = 1) {
    if (weight < 0) {
      return Status::InvalidArgument(
          "CountMinSketch is insert-only (cash-register model); use "
          "CountSketch for turnstile updates");
    }
    const RowHashSet& h = *hashes_;
    const size_t width = h.width();
    int64_t* cells = counters_.MutableCells();
    for (uint32_t d = 0; d < h.depth(); ++d) {
      cells[d * width + h.row(d).Bucket(x)] += weight;
    }
    total_ += weight;
    return Status::OK();
  }

  /// \brief Pre-hashed insert: identical effect to Insert(ph.x, weight) with
  /// zero hash evaluations for the rows ph covers.
  Status Insert(const RowHashSet::PreHashed& ph, int64_t weight = 1) {
    if (weight < 0) {
      return Status::InvalidArgument(
          "CountMinSketch is insert-only (cash-register model); use "
          "CountSketch for turnstile updates");
    }
    const RowHashSet& h = *hashes_;
    const uint32_t depth = h.depth();
    const size_t width = h.width();
    int64_t* cells = counters_.MutableCells();
    for (uint32_t d = 0; d < depth; ++d) {
      const uint32_t bucket =
          d < ph.depth ? ph.bucket[d] : h.row(d).Bucket(ph.x);
      cells[d * width + bucket] += weight;
    }
    total_ += weight;
    return Status::OK();
  }

  /// \brief Minimum-over-rows frequency estimate (never underestimates).
  double EstimateFrequency(uint64_t x) const {
    const RowHashSet& h = *hashes_;
    int64_t best = INT64_MAX;
    for (uint32_t d = 0; d < h.depth(); ++d) {
      best = std::min(best, counters_.at(d, h.row(d).Bucket(x)));
    }
    return static_cast<double>(best == INT64_MAX ? 0 : best);
  }

  /// \brief Total inserted weight (F1), the scale of the additive error.
  int64_t TotalWeight() const { return total_; }

  Status MergeFrom(const CountMinSketch& other) {
    if (other.hashes_ != hashes_ && !hashes_->SameFamily(*other.hashes_)) {
      return Status::PreconditionFailed(
          "CountMinSketch::MergeFrom: sketches from different families");
    }
    counters_.AddFrom(other.counters_);
    total_ += other.total_;
    return Status::OK();
  }

  size_t SizeBytes() const { return counters_.SizeBytes(); }
  size_t CounterCount() const { return counters_.CounterCount(); }

 private:
  friend class CountMinSketchFactory;
  explicit CountMinSketch(std::shared_ptr<const RowHashSet> hashes)
      : hashes_(std::move(hashes)),
        counters_(hashes_->depth(), hashes_->width()) {}

  std::shared_ptr<const RowHashSet> hashes_;
  CounterMatrix counters_;
  int64_t total_ = 0;
};

inline CountMinSketch CountMinSketchFactory::Create() const {
  return CountMinSketch(hashes_);
}

}  // namespace castream

#endif  // CASTREAM_SKETCH_COUNT_MIN_H_
