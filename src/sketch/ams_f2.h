// AMS second frequency moment sketch, Thorup-Zhang fast variant.
//
// The classic Alon-Matias-Szegedy estimator [1] keeps w counters per row,
// each item hashed to one counter with a 4-wise independent sign; the row
// estimate is the sum of squared counters. Thorup and Zhang [29] observed
// that hashing each item to a *single* counter per row (instead of adding a
// sign to every counter) preserves the variance bound and makes updates
// O(depth). This is exactly the variant the paper uses in its F2 experiments
// (Section 5.1).
//
// The sketch is linear in the input, so it supports negative weights
// (turnstile updates, Section 4) and merging by counter addition (property
// (b) of sketching functions, Section 2).
//
// Lazy densification: a new sketch stores exact (item, weight) entries until
// their count exceeds ~width*depth/8 and only then materializes the counter
// matrix. The correlated framework instantiates thousands of per-bucket
// sketches whose buckets close at mass 2^(l+1) — at low levels they hold a
// handful of items, and the sparse mode keeps them at a few entries instead
// of a full counter matrix (the same technique production sketch libraries
// use). While sparse, Estimate() is exact.
//
// Copies share storage: the counter matrix (CounterMatrix) and the sparse
// entries (CowVector) are both copy-on-write, so copying a sketch allocates
// only its per-row sums of squares, and nothing at all while it is sparse.
#ifndef CASTREAM_SKETCH_AMS_F2_H_
#define CASTREAM_SKETCH_AMS_F2_H_

#include <algorithm>
#include <array>
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
#include "src/io/format.h"
#include "src/sketch/counter_matrix.h"
#include "src/sketch/cow_vector.h"
#include "src/sketch/sketch_params.h"

namespace castream {

class AmsF2Sketch;

/// \brief Factory producing mergeable AmsF2Sketch instances that share one
/// immutable set of hash functions.
///
/// Sketches from different factories (different seeds or dimensions) must
/// not be merged; AmsF2Sketch::MergeFrom reports PreconditionFailed in that
/// case. Sharing the hash set keeps the marginal cost of a sketch equal to
/// its counter storage, which matters because the correlated framework
/// instantiates thousands of per-bucket sketches.
class AmsF2SketchFactory {
 public:
  /// CorrelatedSketch<AmsF2SketchFactory> is the registered durable
  /// "correlated F2" summary; these constants give the generic
  /// Serialize/Deserialize its envelope tag and version (src/io/format.h).
  static constexpr SummaryKind kSummaryKind = SummaryKind::kCorrelatedF2;
  static constexpr uint32_t kFormatVersion = io::kCorrelatedF2Version;

  AmsF2SketchFactory(SketchDims dims, uint64_t seed)
      : hashes_(std::make_shared<RowHashSet>(seed, dims.depth, dims.width)) {}

  /// \brief Convenience: dimensions derived from an accuracy target.
  AmsF2SketchFactory(double eps, double delta, uint64_t seed)
      : AmsF2SketchFactory(AmsDimsFor(eps, delta), seed) {}

  /// \brief New empty sketch of this family (starts in sparse mode).
  AmsF2Sketch Create() const;

  /// \brief Computes x's per-row randomness once; the result feeds the
  /// Insert(PreHashed) overload of every sketch in this family.
  RowHashSet::PreHashed Prehash(uint64_t x) const {
    return hashes_->Prehash(x);
  }

  uint32_t depth() const { return hashes_->depth(); }
  uint32_t width() const { return hashes_->width(); }
  uint64_t seed() const { return hashes_->seed(); }

  // ---- Wire format (src/io) ------------------------------------------------
  // The family's value identity is (seed, depth, width): the hash tables are
  // drawn deterministically from them, so a decoded factory stamps out
  // sketches that merge with the originals (RowHashSet::SameFamily).

  void EncodeFamily(io::Encoder& enc) const {
    enc.PutU64(seed());
    enc.PutU32(depth());
    enc.PutU32(width());
  }

  static Result<AmsF2SketchFactory> DecodeFamily(io::Decoder& dec) {
    uint64_t seed = 0;
    uint32_t depth = 0, width = 0;
    CASTREAM_RETURN_NOT_OK(dec.ReadU64(&seed));
    CASTREAM_RETURN_NOT_OK(dec.ReadU32(&depth));
    CASTREAM_RETURN_NOT_OK(dec.ReadU32(&width));
    CASTREAM_RETURN_NOT_OK(ValidateSketchDims(depth, width));
    return AmsF2SketchFactory(SketchDims{depth, width}, seed);
  }

  void EncodeSketch(io::Encoder& enc, const AmsF2Sketch& sketch) const;
  [[nodiscard]] Result<AmsF2Sketch> DecodeSketch(io::Decoder& dec) const;

 private:
  friend class AmsF2Sketch;
  std::shared_ptr<const RowHashSet> hashes_;
};

/// \brief Mergeable (eps, delta) estimator of F2 = sum_i f_i^2 over item
/// frequencies f_i, supporting integer-weighted (including negative) updates.
class AmsF2Sketch {
 public:
  /// \brief Adds `weight` to item x's frequency. O(depth) dense; O(entries)
  /// sparse (entries are few and contiguous by construction).
  void Insert(uint64_t x, int64_t weight) {
    count_ += weight;
    if (!counters_.has_value()) {
      InsertSparse(x, nullptr, weight);
      return;
    }
    InsertDense(x, weight);
  }
  void Insert(uint64_t x) { Insert(x, 1); }

  /// \brief Pre-hashed insert: identical effect to Insert(ph.x, weight), but
  /// the dense path is pure counter arithmetic — zero hash evaluations. The
  /// sparse path stores `ph` alongside the entry so densification never
  /// re-hashes either.
  void Insert(const RowHashSet::PreHashed& ph, int64_t weight = 1) {
    count_ += weight;
    if (!counters_.has_value()) {
      InsertSparse(ph.x, &ph, weight);
      return;
    }
    InsertDense(ph, weight);
  }

  /// \brief Median-of-rows estimate of F2 (exact while sparse). O(depth).
  double Estimate() const {
    if (!counters_.has_value()) return static_cast<double>(sparse_ss_);
    const uint32_t d = counters_->depth();
    if (d == 1) return static_cast<double>(row_ss_[0]);
    // The median is selected in a copy of the rows: on the stack up to 16
    // rows (AmsDimsFor caps depth at 8 by default), on the heap for the
    // deeper sketches only an explicit SketchDims builds.
    std::array<int64_t, 16> local;
    std::vector<int64_t> wide;
    int64_t* rows = local.data();
    if (d > local.size()) {
      wide.resize(d);
      rows = wide.data();
    }
    std::copy(row_ss_.begin(), row_ss_.end(), rows);
    const size_t mid = d / 2;
    std::nth_element(rows, rows + mid, rows + d);
    if (d % 2 == 1) return static_cast<double>(rows[mid]);
    int64_t lo = *std::max_element(rows, rows + mid);
    return 0.5 * (static_cast<double>(lo) + static_cast<double>(rows[mid]));
  }

  /// \brief Cheap certain upper bound on Estimate(): the maximum per-row sum
  /// of squares (the median over rows can never exceed the max row), or the
  /// exact sum of squares while sparse. O(depth), no scratch copy, no
  /// selection — callers that only need to test `Estimate() >= t` (the
  /// bucket-closing rule of Algorithm 2) can skip the full median whenever
  /// this bound is still below t, without changing a single decision.
  double EstimateUpperBound() const {
    if (!counters_.has_value()) return static_cast<double>(sparse_ss_);
    int64_t worst = row_ss_[0];
    for (size_t d = 1; d < row_ss_.size(); ++d) {
      worst = std::max(worst, row_ss_[d]);
    }
    return static_cast<double>(worst);
  }

  /// \brief Adds another sketch of the same family into this one. The family
  /// check is by value (seed + dimensions), so sketches built from distinct
  /// factory objects — or in distinct processes — merge as long as they were
  /// seeded alike.
  Status MergeFrom(const AmsF2Sketch& other) {
    if (other.hashes_ != hashes_ && !hashes_->SameFamily(*other.hashes_)) {
      return Status::PreconditionFailed(
          "AmsF2Sketch::MergeFrom: sketches from different families");
    }
    if (!other.counters_.has_value()) {
      // Replaying the other side's exact entries works into either mode; the
      // entries carry their pre-hashed rows, so no re-hashing happens here.
      for (const SparseEntry& e : other.sparse_) {
        if (counters_.has_value()) {
          InsertDense(e.ph, e.w);
        } else {
          InsertSparse(e.ph.x, &e.ph, e.w);
        }
      }
      count_ += other.count_;
      return Status::OK();
    }
    count_ += other.count_;
    if (!counters_.has_value() && sparse_.empty()) {
      // Nothing of our own to add: share the other side's cells (copy on
      // write) — merging into an empty sketch is how queries and subtree
      // adoption copy a bucket.
      counters_ = other.counters_;
      row_ss_ = other.row_ss_;
      return Status::OK();
    }
    if (!counters_.has_value()) Densify();
    counters_->AddFrom(other.counters_.value());
    for (uint32_t d = 0; d < counters_->depth(); ++d) {
      row_ss_[d] = counters_->RowSumSquares(d);
    }
    return Status::OK();
  }

  /// \brief Net weight inserted (F1 of the signed stream); used by callers
  /// that track bucket occupancy.
  int64_t NetCount() const { return count_; }

  /// \brief True while the sketch stores exact entries (testing hook).
  bool IsSparse() const { return !counters_.has_value(); }

  size_t SizeBytes() const {
    if (!counters_.has_value()) {
      return sparse_.size() * sizeof(SparseEntry) + sizeof(*this);
    }
    return counters_->SizeBytes() + row_ss_.size() * sizeof(int64_t);
  }
  /// \brief Stored numbers, the "number of tuples stored" unit of
  /// Section 5: exact entries while sparse, counter cells once dense.
  size_t CounterCount() const {
    if (!counters_.has_value()) return sparse_.size();
    return counters_->CounterCount();
  }

 private:
  friend class AmsF2SketchFactory;
  // `ph.x` is the item; `ph` is populated lazily (only inserts that came in
  // pre-hashed carry rows), so densification re-hashes at most the entries
  // that were never pre-hashed. Deliberate trade-off: carrying the rows
  // grows a sparse entry from 16 to ~72 bytes — still below the dense
  // matrix at the capacity where Densify() fires, and typical framework
  // buckets hold only a handful of entries — in exchange for hash-free
  // densification and sparse-replay merges.
  struct SparseEntry {
    RowHashSet::PreHashed ph;
    int64_t w;
  };

  explicit AmsF2Sketch(std::shared_ptr<const RowHashSet> hashes)
      : hashes_(std::move(hashes)) {}

  size_t SparseCapacity() const {
    // cells/8 keeps sparse memory at ~1/4 of the dense matrix; the 128-entry
    // cap bounds the linear scan of InsertSparse on wide configurations.
    const size_t cells = static_cast<size_t>(hashes_->depth()) *
                         hashes_->width();
    return std::clamp<size_t>(cells / 8, 16, 128);
  }

  // Kept out of line so the (long-run) dense insert path stays small enough
  // to inline into callers' hot loops; a sketch leaves sparse mode for good
  // after at most SparseCapacity() + 1 inserts.
  [[gnu::noinline]] void InsertSparse(uint64_t x,
                                      const RowHashSet::PreHashed* ph,
                                      int64_t weight) {
    SparseEntry* entries = sparse_.MutableData();
    for (size_t i = 0; i < sparse_.size(); ++i) {
      SparseEntry& e = entries[i];
      if (e.ph.x == x) {
        // (w+d)^2 - w^2 maintains the exact sum of squares incrementally.
        sparse_ss_ += 2 * e.w * weight + weight * weight;
        e.w += weight;
        if (ph != nullptr && !e.ph.Computed()) e.ph = *ph;
        // Transpose heuristic: hot items drift toward the front, keeping
        // the linear scan short on skewed streams.
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
    sparse_ss_ += weight * weight;
    if (sparse_.size() > SparseCapacity()) Densify();
  }

  void InsertDense(uint64_t x, int64_t weight) {
    const RowHashSet& h = *hashes_;
    int64_t* cells = counters_->MutableCells();
    const size_t width = h.width();
    for (uint32_t d = 0; d < h.depth(); ++d) {
      const RowHasher& row = h.row(d);
      const int64_t delta = row.Sign(x) * weight;
      int64_t& cell = cells[d * width + row.Bucket(x)];
      const int64_t old = cell;
      cell += delta;
      // (c+delta)^2 - c^2 = 2*c*delta + delta^2, so the row sum of squares
      // can be maintained in O(1) — this is what makes Estimate() cheap
      // enough for the per-insert bucket-closing test in Algorithm 2.
      row_ss_[d] += 2 * old * delta + delta * delta;
    }
  }

  // Hash-free dense update; rows beyond ph.depth (never produced by the
  // factories in this repo, see kMaxPreHashDepth) hash on demand.
  void InsertDense(const RowHashSet::PreHashed& ph, int64_t weight) {
    const RowHashSet& h = *hashes_;
    const uint32_t depth = h.depth();
    const size_t width = h.width();
    int64_t* cells = counters_->MutableCells();
    for (uint32_t d = 0; d < depth; ++d) {
      int64_t sign;
      uint32_t bucket;
      if (d < ph.depth) {
        sign = ph.Sign(d);
        bucket = ph.bucket[d];
      } else {
        const RowHasher& row = h.row(d);
        sign = row.Sign(ph.x);
        bucket = row.Bucket(ph.x);
      }
      const int64_t delta = sign * weight;
      int64_t& cell = cells[d * width + bucket];
      const int64_t old = cell;
      cell += delta;
      row_ss_[d] += 2 * old * delta + delta * delta;
    }
  }

  void Densify() {
    counters_.emplace(hashes_->depth(), hashes_->width());
    row_ss_.assign(hashes_->depth(), 0);
    // Entries inserted pre-hashed replay without any hashing; entries whose
    // ph was never computed fall back to on-demand hashing inside
    // InsertDense (ph.depth == 0 routes every row there).
    for (const SparseEntry& e : sparse_) InsertDense(e.ph, e.w);
    sparse_.clear();
    sparse_ss_ = 0;
  }

  // ---- Wire format (called through the factory's Encode/DecodeSketch) ------
  // Only integer stream state goes on the wire: sparse entries as (x, weight)
  // pairs — the per-row pre-hash is recomputed from the family, which is
  // deterministic, so replayed densification stays bit-identical — and dense
  // mode as the raw counter cells. sparse_ss_ / row_ss_ are derived and
  // recomputed on decode (their incremental maintenance is exact integer
  // arithmetic, so recomputation reproduces them bit-for-bit).

  void EncodeTo(io::Encoder& enc) const {
    enc.PutI64(count_);
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
    CASTREAM_RETURN_NOT_OK(dec.ReadI64(&count_));
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
      sparse_ss_ = 0;
      for (uint32_t i = 0; i < n; ++i) {
        SparseEntry e;
        CASTREAM_RETURN_NOT_OK(dec.ReadU64(&e.ph.x));
        CASTREAM_RETURN_NOT_OK(dec.ReadI64(&e.w));
        // Entries are unique by item: the encoder aggregates weights per x,
        // so duplicates prove corruption (and would skew the exact sparse
        // F2, which assumes one aggregated weight per item).
        for (const SparseEntry& seen : sparse_) {
          if (seen.ph.x == e.ph.x) {
            return Status::InvalidArgument(
                "decode: duplicate item in sparse sketch entries");
          }
        }
        // Unsigned multiply: defined even for adversarial weights (the
        // incremental arithmetic it mirrors wraps identically in practice).
        sparse_ss_ += static_cast<int64_t>(static_cast<uint64_t>(e.w) *
                                           static_cast<uint64_t>(e.w));
        sparse_.push_back(e);
      }
      return Status::OK();
    }
    if (mode != 1) {
      return Status::InvalidArgument("decode: bad AMS sketch mode byte");
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
    row_ss_.assign(d, 0);
    sparse_.clear();
    sparse_ss_ = 0;
    int64_t* cells = counters_->MutableCells();
    CASTREAM_RETURN_NOT_OK(
        dec.ReadI64Span(std::span<int64_t>(cells, cells_count)));
    for (uint32_t row = 0; row < d; ++row) {
      uint64_t ss = 0;  // unsigned: no UB on adversarial counter values
      for (uint32_t col = 0; col < w; ++col) {
        const int64_t v = *cells++;
        ss += static_cast<uint64_t>(v) * static_cast<uint64_t>(v);
      }
      row_ss_[row] = static_cast<int64_t>(ss);
    }
    return Status::OK();
  }

  std::shared_ptr<const RowHashSet> hashes_;
  std::optional<CounterMatrix> counters_;  // nullopt while sparse
  std::vector<int64_t> row_ss_;            // dense mode: per-row sum-squares
  CowVector<SparseEntry> sparse_;          // sparse mode: exact entries
  int64_t sparse_ss_ = 0;                  // sparse mode: exact F2
  int64_t count_ = 0;
};

inline AmsF2Sketch AmsF2SketchFactory::Create() const {
  return AmsF2Sketch(hashes_);
}

inline void AmsF2SketchFactory::EncodeSketch(io::Encoder& enc,
                                             const AmsF2Sketch& sketch) const {
  sketch.EncodeTo(enc);
}

inline Result<AmsF2Sketch> AmsF2SketchFactory::DecodeSketch(
    io::Decoder& dec) const {
  AmsF2Sketch sketch = Create();
  CASTREAM_RETURN_NOT_OK(sketch.DecodeFrom(dec));
  return sketch;
}

}  // namespace castream

#endif  // CASTREAM_SKETCH_AMS_F2_H_
