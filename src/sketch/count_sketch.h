// CountSketch (Charikar-Chen-Farach-Colton [8]): per-item frequency
// estimation with additive error ~sqrt(F2/width). Used by the correlated
// F2-heavy-hitters structure of Section 3.3, where every dyadic bucket
// carries a CountSketch alongside its AMS sketch.
//
// Like AmsF2Sketch, a new CountSketch stores exact (item, weight) entries
// ("sparse mode") until their count exceeds ~width*depth/8 (capped), then
// materializes the counter matrix. Low-level dyadic buckets close after a
// handful of items, so sparse mode keeps the thousands of per-bucket
// sketches small — and exact. As in AmsF2Sketch, copies share both the
// counter matrix and the sparse entries (copy on write).
#ifndef CASTREAM_SKETCH_COUNT_SKETCH_H_
#define CASTREAM_SKETCH_COUNT_SKETCH_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/hash/row_hasher.h"
#include "src/io/decoder.h"
#include "src/io/encoder.h"
#include "src/sketch/counter_matrix.h"
#include "src/sketch/cow_vector.h"
#include "src/sketch/sketch_params.h"

namespace castream {

class CountSketch;

/// \brief Factory producing mergeable CountSketch instances sharing one hash
/// set (see AmsF2SketchFactory for the rationale).
class CountSketchFactory {
 public:
  CountSketchFactory(SketchDims dims, uint64_t seed)
      : hashes_(std::make_shared<RowHashSet>(seed, dims.depth, dims.width)) {}

  CountSketchFactory(double eps, double delta, uint64_t seed)
      : CountSketchFactory(CountSketchDimsFor(eps, delta), seed) {}

  CountSketch Create() const;

  /// \brief Computes x's per-row randomness once; the result feeds the
  /// Insert(PreHashed) overload of every sketch in this family.
  RowHashSet::PreHashed Prehash(uint64_t x) const {
    return hashes_->Prehash(x);
  }
  void Prehash(uint64_t x, RowHashSet::PreHashed& out) const {
    hashes_->Prehash(x, out);
  }

  uint32_t depth() const { return hashes_->depth(); }
  uint32_t width() const { return hashes_->width(); }
  uint64_t seed() const { return hashes_->seed(); }

  // ---- Wire format (src/io; same scheme as AmsF2SketchFactory) -------------

  void EncodeFamily(io::Encoder& enc) const {
    enc.PutU64(seed());
    enc.PutU32(depth());
    enc.PutU32(width());
  }

  static Result<CountSketchFactory> DecodeFamily(io::Decoder& dec) {
    uint64_t seed = 0;
    uint32_t depth = 0, width = 0;
    CASTREAM_RETURN_NOT_OK(dec.ReadU64(&seed));
    CASTREAM_RETURN_NOT_OK(dec.ReadU32(&depth));
    CASTREAM_RETURN_NOT_OK(dec.ReadU32(&width));
    CASTREAM_RETURN_NOT_OK(ValidateSketchDims(depth, width));
    return CountSketchFactory(SketchDims{depth, width}, seed);
  }

  void EncodeSketch(io::Encoder& enc, const CountSketch& sketch) const;
  [[nodiscard]] Result<CountSketch> DecodeSketch(io::Decoder& dec) const;

 private:
  friend class CountSketch;
  std::shared_ptr<const RowHashSet> hashes_;
};

/// \brief Linear sketch answering point queries f_x with additive error
/// sqrt(F2/width) per row, median over rows; supports negative weights and
/// merging within a family.
class CountSketch {
 public:
  /// \brief Adds `weight` to item x's frequency.
  void Insert(uint64_t x, int64_t weight = 1) {
    if (!counters_.has_value()) {
      InsertSparse(x, nullptr, weight);
      return;
    }
    InsertDense(x, weight);
  }

  /// \brief Pre-hashed insert: identical effect to Insert(ph.x, weight) with
  /// a hash-free dense path (see AmsF2Sketch for the rationale).
  void Insert(const RowHashSet::PreHashed& ph, int64_t weight = 1) {
    if (!counters_.has_value()) {
      InsertSparse(ph.x, &ph, weight);
      return;
    }
    InsertDense(ph, weight);
  }

  /// \brief Estimate of item x's frequency (exact while sparse).
  double EstimateFrequency(uint64_t x) const {
    if (!counters_.has_value()) {
      for (const SparseEntry& e : sparse_) {
        if (e.ph.x == x) return static_cast<double>(e.w);
      }
      return 0.0;
    }
    const RowHashSet& h = *hashes_;
    scratch_.clear();
    for (uint32_t d = 0; d < h.depth(); ++d) {
      const RowHasher& row = h.row(d);
      scratch_.push_back(
          static_cast<double>(row.Sign(x) * counters_->at(d, row.Bucket(x))));
    }
    return MedianOfScratch();
  }

  /// \brief Median-of-rows estimate of F2 of the inserted frequencies (a
  /// CountSketch row is an AMS row, so the row sum of squares estimates F2).
  /// Callers use it as a noise scale: point estimates carry additive error
  /// ~sqrt(F2/width). Exact while sparse.
  double EstimateF2() const {
    if (!counters_.has_value()) {
      double ss = 0.0;
      for (const SparseEntry& e : sparse_) {
        ss += static_cast<double>(e.w) * static_cast<double>(e.w);
      }
      return ss;
    }
    scratch_.clear();
    for (uint32_t d = 0; d < counters_->depth(); ++d) {
      scratch_.push_back(static_cast<double>(counters_->RowSumSquares(d)));
    }
    return MedianOfScratch();
  }

  Status MergeFrom(const CountSketch& other) {
    if (other.hashes_ != hashes_ && !hashes_->SameFamily(*other.hashes_)) {
      return Status::PreconditionFailed(
          "CountSketch::MergeFrom: sketches from different families");
    }
    if (!other.counters_.has_value()) {
      // Replay carries the stored pre-hashes, so merging never re-hashes.
      for (const SparseEntry& e : other.sparse_) Insert(e.ph, e.w);
      return Status::OK();
    }
    if (!counters_.has_value() && sparse_.empty()) {
      counters_ = other.counters_;  // share (see AmsF2Sketch::MergeFrom)
      return Status::OK();
    }
    if (!counters_.has_value()) Densify();
    counters_->AddFrom(other.counters_.value());
    return Status::OK();
  }

  bool IsSparse() const { return !counters_.has_value(); }

  size_t SizeBytes() const {
    if (!counters_.has_value()) {
      return sparse_.size() * sizeof(SparseEntry) + sizeof(*this);
    }
    return counters_->SizeBytes();
  }
  size_t CounterCount() const {
    if (!counters_.has_value()) return sparse_.size();
    return counters_->CounterCount();
  }

 private:
  friend class CountSketchFactory;
  // `ph.x` is the item; `ph` is populated lazily so densification re-hashes
  // at most the entries that were never pre-hashed (see AmsF2Sketch for the
  // entry-size trade-off).
  struct SparseEntry {
    RowHashSet::PreHashed ph;
    int64_t w;
  };

  explicit CountSketch(std::shared_ptr<const RowHashSet> hashes)
      : hashes_(std::move(hashes)) {}

  size_t SparseCapacity() const {
    const size_t cells =
        static_cast<size_t>(hashes_->depth()) * hashes_->width();
    return std::clamp<size_t>(cells / 8, 16, 128);
  }

  // Out of line for the same hot-loop inlining reason as
  // AmsF2Sketch::InsertSparse.
  [[gnu::noinline]] void InsertSparse(uint64_t x,
                                      const RowHashSet::PreHashed* ph,
                                      int64_t weight) {
    SparseEntry* entries = sparse_.MutableData();
    for (size_t i = 0; i < sparse_.size(); ++i) {
      SparseEntry& e = entries[i];
      if (e.ph.x == x) {
        e.w += weight;
        if (ph != nullptr && !e.ph.Computed()) e.ph = *ph;
        // Transpose heuristic: hot items drift toward the front (see
        // AmsF2Sketch::InsertSparse).
        if (i > 0) std::swap(entries[i], entries[i - 1]);
        return;
      }
    }
    SparseEntry entry;
    if (ph != nullptr) {
      entry.ph = *ph;
    } else {
      entry.ph.x = x;
    }
    entry.w = weight;
    sparse_.push_back(entry);
    if (sparse_.size() > SparseCapacity()) Densify();
  }

  void InsertDense(uint64_t x, int64_t weight) {
    const RowHashSet& h = *hashes_;
    const size_t width = h.width();
    int64_t* cells = counters_->MutableCells();
    for (uint32_t d = 0; d < h.depth(); ++d) {
      const RowHasher& row = h.row(d);
      cells[d * width + row.Bucket(x)] += row.Sign(x) * weight;
    }
  }

  // Hash-free dense update; rows beyond ph.depth hash on demand.
  void InsertDense(const RowHashSet::PreHashed& ph, int64_t weight) {
    const RowHashSet& h = *hashes_;
    const uint32_t depth = h.depth();
    const size_t width = h.width();
    int64_t* cells = counters_->MutableCells();
    for (uint32_t d = 0; d < depth; ++d) {
      if (d < ph.depth) {
        cells[d * width + ph.bucket[d]] += ph.Sign(d) * weight;
      } else {
        const RowHasher& row = h.row(d);
        cells[d * width + row.Bucket(ph.x)] += row.Sign(ph.x) * weight;
      }
    }
  }

  void Densify() {
    counters_.emplace(hashes_->depth(), hashes_->width());
    for (const SparseEntry& e : sparse_) InsertDense(e.ph, e.w);
    sparse_.clear();
  }

  // ---- Wire format (see AmsF2Sketch: sparse entries stay sparse, dense
  // mode ships raw cells; pre-hashes are recomputed from the family) --------

  void EncodeTo(io::Encoder& enc) const {
    if (!counters_.has_value()) {
      enc.PutU8(0);
      enc.PutU32(static_cast<uint32_t>(sparse_.size()));
      for (const SparseEntry& e : sparse_) {
        enc.PutU64(e.ph.x);
        enc.PutI64(e.w);
      }
      return;
    }
    enc.PutU8(1);
    enc.PutU32(counters_->depth());
    enc.PutU32(counters_->width());
    enc.PutI64Span(std::span<const int64_t>(counters_->cells(),
                                            counters_->CounterCount()));
  }

  [[nodiscard]] Status DecodeFrom(io::Decoder& dec) {
    uint8_t mode = 0;
    CASTREAM_RETURN_NOT_OK(dec.ReadU8(&mode));
    if (mode == 0) {
      uint32_t n = 0;
      CASTREAM_RETURN_NOT_OK(dec.ReadCount(&n, 16));
      if (n > SparseCapacity()) {
        return Status::InvalidArgument(
            "decode: sparse entry count exceeds this family's capacity");
      }
      sparse_.clear();
      sparse_.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        SparseEntry e;
        CASTREAM_RETURN_NOT_OK(dec.ReadU64(&e.ph.x));
        CASTREAM_RETURN_NOT_OK(dec.ReadI64(&e.w));
        // Entries are unique by item (see AmsF2Sketch::DecodeFrom).
        for (const SparseEntry& seen : sparse_) {
          if (seen.ph.x == e.ph.x) {
            return Status::InvalidArgument(
                "decode: duplicate item in sparse sketch entries");
          }
        }
        sparse_.push_back(e);
      }
      return Status::OK();
    }
    if (mode != 1) {
      return Status::InvalidArgument("decode: bad CountSketch mode byte");
    }
    uint32_t d = 0, w = 0;
    CASTREAM_RETURN_NOT_OK(dec.ReadU32(&d));
    CASTREAM_RETURN_NOT_OK(dec.ReadU32(&w));
    if (d != hashes_->depth() || w != hashes_->width()) {
      return Status::InvalidArgument(
          "decode: dense counter dimensions disagree with the hash family");
    }
    const size_t cells_count = static_cast<size_t>(d) * w;
    if (dec.remaining() < cells_count * 8) {
      return Status::InvalidArgument(
          "decode: payload too short for the declared counter matrix");
    }
    counters_.emplace(d, w);
    sparse_.clear();
    return dec.ReadI64Span(
        std::span<int64_t>(counters_->MutableCells(), cells_count));
  }

  double MedianOfScratch() const {
    const size_t mid = scratch_.size() / 2;
    std::nth_element(scratch_.begin(), scratch_.begin() + mid, scratch_.end());
    if (scratch_.size() % 2 == 1) return scratch_[mid];
    double lo = *std::max_element(scratch_.begin(), scratch_.begin() + mid);
    return 0.5 * (lo + scratch_[mid]);
  }

  std::shared_ptr<const RowHashSet> hashes_;
  std::optional<CounterMatrix> counters_;  // nullopt while sparse
  CowVector<SparseEntry> sparse_;
  mutable std::vector<double> scratch_;
};

inline CountSketch CountSketchFactory::Create() const {
  return CountSketch(hashes_);
}

inline void CountSketchFactory::EncodeSketch(io::Encoder& enc,
                                             const CountSketch& sketch) const {
  sketch.EncodeTo(enc);
}

inline Result<CountSketch> CountSketchFactory::DecodeSketch(
    io::Decoder& dec) const {
  CountSketch sketch = Create();
  CASTREAM_RETURN_NOT_OK(sketch.DecodeFrom(dec));
  return sketch;
}

}  // namespace castream

#endif  // CASTREAM_SKETCH_COUNT_SKETCH_H_
