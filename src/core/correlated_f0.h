// Correlated distinct counting (Section 3.2 of the paper).
//
// Adaptation of the Gibbons-Tirthapura distinct sampler [20]: levels
// l = 0 .. L-1 where level l samples item identifiers at rate 2^-l by hash
// value; each level retains, for every sampled x, the *minimum* y seen with
// x — evicting the entry with the largest stored y when the level's budget
// is exceeded (a priority queue keyed by y, replacing the FIFO of [20] —
// exactly the modification the paper describes). Y_l tracks the smallest y
// ever given up at level l; a query with cutoff c is answered at the
// smallest level with Y_l > c by counting stored entries with y <= c and
// scaling by 2^l.
//
// Correctness invariant (proved in the paper's Section 3.2 sketch, tested
// empirically in tests/correlated_f0_test.cc): for every x whose true
// minimum y is below Y_l and whose hash selects level l, the level stores x
// with its true minimum y.
//
// The same machinery with the *two* smallest occurrence values per sampled
// x yields correlated rarity (Section 3.3); see TrackSecondOccurrence.
#ifndef CASTREAM_CORE_CORRELATED_F0_H_
#define CASTREAM_CORE_CORRELATED_F0_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/io/format.h"
#include "src/stream/types.h"

namespace castream {

/// \brief Tunables for CorrelatedF0Sketch / CorrelatedRaritySketch.
struct CorrelatedF0Options {
  /// Target relative error.
  double eps = 0.1;
  /// Target failure probability; controls the number of independent
  /// repetitions whose median is returned.
  double delta = 0.05;
  /// Item identifiers come from {0 .. x_domain}; sets the level count to
  /// log2(x_domain) + 1 (deeper levels would never be the query level).
  uint64_t x_domain = (uint64_t{1} << 20) - 1;
  /// kappa in the per-level budget alpha = ceil(kappa / eps^2). The
  /// Gibbons-Tirthapura analysis uses 36/eps^2 per level; kappa = 4 is the
  /// calibrated practical point where the chosen level holds enough samples
  /// (>= ~1/eps^2 matching entries) across the paper's datasets, including
  /// the small-domain Ethernet trace, while keeping Figure 6/7 space at the
  /// scale the paper reports.
  double kappa = 4.0;
  /// Nonzero: use exactly this per-level budget.
  uint32_t alpha_override = 0;
  /// Nonzero: use exactly this many repetitions.
  uint32_t repetitions_override = 0;

  uint32_t Levels() const;
  uint32_t Alpha() const;
  uint32_t Repetitions() const;
};

/// \brief Summary for |{x : (x, y) in S, y <= c}| with query-time c.
class CorrelatedF0Sketch {
 public:
  /// \brief `track_second_occurrence` additionally records the second
  /// smallest occurrence y per sampled x, enabling rarity queries
  /// (Section 3.3); CorrelatedRaritySketch sets it.
  CorrelatedF0Sketch(const CorrelatedF0Options& options, uint64_t seed,
                     bool track_second_occurrence = false);

  /// \brief Observes tuple (x, y). Expected O(1) levels touched.
  void Insert(uint64_t x, uint64_t y);

  /// \brief Observes `count` adjacent occurrences of (x, y): exactly
  /// equivalent to calling Insert(x, y) count times in a row (the first copy
  /// sets / improves the minimum occurrence value, the second saturates the
  /// second-occurrence value, further copies are no-ops). count == 0 is a
  /// no-op. Counts are multiplicities — this is what the hot-key coalescing
  /// front end produces — so there is no negative-weight form.
  void Insert(uint64_t x, uint64_t y, uint64_t count);

  /// \brief Batched ingest, exactly equivalent to one-at-a-time Insert in
  /// batch order: repetitions are independent, so the batch is run through
  /// one repetition at a time, keeping that repetition's levels (and the
  /// per-instance hash seed) cache-resident. Callers keep the buffer.
  void InsertBatch(std::span<const Tuple> batch);
  void InsertBatch(std::initializer_list<Tuple> batch) {
    InsertBatch(std::span<const Tuple>(batch.begin(), batch.size()));
  }

  /// \brief Weighted batched ingest: each row is `weight` adjacent
  /// occurrences of its (x, y) (see Insert(x, y, count)); rows with
  /// weight <= 0 are skipped.
  void InsertBatch(std::span<const WeightedTuple> batch);

  /// \brief Merges another summary built with the same options and seed into
  /// this one, so queries answer over the union of both streams. Per level:
  /// Y_l becomes the min of both thresholds, entries for a shared x keep the
  /// two smallest occurrence values of the union (exact, because each side
  /// kept its own two smallest), and new entries obey the same largest-y
  /// eviction policy as Insert. Mismatched options or hash seeds fail with
  /// PreconditionFailed; when no level ever overflowed its budget the merged
  /// state is bit-for-bit the single-stream state.
  Status MergeFrom(const CorrelatedF0Sketch& other);

  /// \brief The options and hash-seed checks MergeFrom runs before it
  /// touches anything: OK exactly when `other` could be merged in.
  Status CompatibleWith(const CorrelatedF0Sketch& other) const;

  /// \brief (eps, delta) estimate of the number of distinct x among tuples
  /// with y <= c. Fails only if every level has discarded below c, which
  /// cannot happen at level 0 unless the budget is smaller than the answer
  /// at every repetition.
  Result<double> Query(uint64_t c) const;

  /// \brief Estimate of the fraction of distinct x (among tuples with
  /// y <= c) occurring exactly once; requires track_second_occurrence.
  Result<double> QueryRarity(uint64_t c) const;

  // ---- Wire format (the Unified Summary API; src/io) -----------------------
  // Entries are serialized in by_y order — (y_min, x) ascending — so equal
  // summaries produce identical bytes on every platform; per-instance hash
  // seeds round-trip, so a deserialized summary merges with the originals.

  /// \brief Appends the versioned, length-prefixed blob for this summary.
  [[nodiscard]] Status Serialize(std::string* out) const;

  /// \brief Rebuilds a summary from a whole blob. Truncated, corrupt, or
  /// wrong-version payloads return InvalidArgument (wrong kind:
  /// PreconditionFailed) with allocations capped by the bytes present.
  [[nodiscard]] static Result<CorrelatedF0Sketch> Deserialize(
      std::span<const std::byte> bytes);

  /// \brief Envelope-free body codec, shared with CorrelatedRaritySketch
  /// (same state, different envelope tag).
  void EncodeBody(io::Encoder& enc) const;
  [[nodiscard]] static Result<CorrelatedF0Sketch> DecodeBody(io::Decoder& dec);

  /// \brief Whether this summary records second-occurrence values (set for
  /// rarity summaries; checked when deserializing under the rarity tag).
  bool tracks_second_occurrence() const { return track_second_; }

  // ---- Introspection -------------------------------------------------------

  uint32_t levels() const { return options_.Levels(); }
  uint32_t alpha() const { return options_.Alpha(); }
  uint32_t repetitions() const {
    return static_cast<uint32_t>(instances_.size());
  }
  /// \brief Stored (x, y) entries across all levels and repetitions — the
  /// paper's "number of tuples" space metric for Figures 6 and 7.
  size_t StoredTuplesEquivalent() const;
  size_t SizeBytes() const;

 private:
  struct Entry {
    uint64_t y_min;
    uint64_t y_second;  // UINT64_MAX unless track_second_occurrence
  };

  struct Level {
    // By-x store plus an ordered index by (y_min, x) for largest-y eviction.
    std::unordered_map<uint64_t, Entry> by_x;
    std::map<std::pair<uint64_t, uint64_t>, uint64_t> by_y;  // (y,x) -> x
    uint64_t y_threshold = UINT64_MAX;  // Y_l
  };

  struct Instance {
    uint64_t hash_seed;
    std::vector<Level> levels;
  };

  /// \brief `multiple` means at least two adjacent copies of (x, y): the
  /// second copy saturates the tracked second-occurrence value at y.
  void InsertInto(Instance& inst, uint64_t x, uint64_t y, bool multiple);
  void MergeLevelFrom(Level& dst, const Level& src);
  /// \brief Level-l count of entries with y <= c, or error if incomplete.
  Result<double> QueryInstance(const Instance& inst, uint64_t c,
                               bool rarity) const;

  CorrelatedF0Options options_;
  bool track_second_;
  uint32_t alpha_;
  std::vector<Instance> instances_;
};

/// \brief Correlated rarity (Section 3.3): fraction of distinct items with
/// exactly one occurrence among tuples with y <= c.
class CorrelatedRaritySketch {
 public:
  CorrelatedRaritySketch(const CorrelatedF0Options& options, uint64_t seed)
      : inner_(options, seed, /*track_second_occurrence=*/true) {}

  void Insert(uint64_t x, uint64_t y) { inner_.Insert(x, y); }
  /// \brief `count` adjacent occurrences of (x, y); exactly equivalent to
  /// count repeated Insert calls (rarity tracks the two smallest occurrence
  /// values, so the second copy matters here).
  void Insert(uint64_t x, uint64_t y, uint64_t count) {
    inner_.Insert(x, y, count);
  }
  void InsertBatch(std::span<const Tuple> batch) { inner_.InsertBatch(batch); }
  void InsertBatch(std::span<const WeightedTuple> batch) {
    inner_.InsertBatch(batch);
  }
  /// \brief Merges another rarity summary (same options and seed); both the
  /// minimum and second-minimum occurrence values merge exactly.
  Status MergeFrom(const CorrelatedRaritySketch& other) {
    return inner_.MergeFrom(other.inner_);
  }
  Status CompatibleWith(const CorrelatedRaritySketch& other) const {
    return inner_.CompatibleWith(other.inner_);
  }
  Result<double> Query(uint64_t c) const { return inner_.QueryRarity(c); }
  /// \brief The underlying distinct count (the rarity denominator).
  Result<double> QueryDistinct(uint64_t c) const { return inner_.Query(c); }

  size_t StoredTuplesEquivalent() const {
    return inner_.StoredTuplesEquivalent();
  }
  size_t SizeBytes() const { return inner_.SizeBytes(); }

  /// \brief Same body as CorrelatedF0Sketch under the rarity envelope tag;
  /// a blob that does not track second occurrences is rejected.
  [[nodiscard]] Status Serialize(std::string* out) const;
  [[nodiscard]] static Result<CorrelatedRaritySketch> Deserialize(
      std::span<const std::byte> bytes);

 private:
  explicit CorrelatedRaritySketch(CorrelatedF0Sketch inner)
      : inner_(std::move(inner)) {}

  CorrelatedF0Sketch inner_;
};

}  // namespace castream

#endif  // CASTREAM_CORE_CORRELATED_F0_H_
