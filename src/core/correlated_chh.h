// Dedicated correlated heavy-hitter (CHH) summaries: the two deterministic
// counter-based algorithms the ROADMAP panel compares against the paper's
// Section 3.3 CountSketch construction.
//
//  * CorrelatedNestedMisraGries — Lahiri/Mukherjee/Tirthapura
//    (arXiv:1310.1161): a primary Misra-Gries table over the item x whose
//    entries each own a *nested* Misra-Gries table over the correlated
//    value y. A query with cutoff c folds every entry's nested counters at
//    or below c into a per-item estimate of f_x(c) = |{(x_i, y_i) : x_i =
//    x, y_i <= c}| and reports the items whose estimate (plus tracked
//    undercount slack) clears phi * N.
//  * CorrelatedFastChh — Epicoco/Cafaro/Pulimeno (arXiv:1611.04942): the
//    same primary Misra-Gries stage over x, composed with a per-entry
//    Space-Saving stage over y. Space-Saving updates are O(1) replacements
//    instead of decrement rounds and carry per-slot inherited-error
//    counters, giving tighter two-sided per-y bounds at the same space.
//
// Both are mergeable counter structures (the mergeable-summaries reduction:
// add counters key-wise, then subtract the (k+1)-th largest counter and
// drop non-positive survivors — errors add, capacity is preserved), so they
// inherit sharding, snapshot serving, and the relay tier through the
// Summary protocol for free. Both are fully deterministic: no hash
// families, identity for MergeFrom is the value-based table configuration
// (the effective x/y capacities). Merging is order-independent up to the
// algorithms' guarantees, and bit-for-bit reproducible for a fixed merge
// order — which is what the sharded driver's tree-order oracle pins.
//
// Deviation from the papers, shared by both kinds: a primary-stage
// decrement round does not touch the surviving entries' y-stages. Nested
// counters are still never overestimates of the true per-(x, y) resident
// mass (Misra-Gries counters are lower bounds; Space-Saving tracks its
// inherited error explicitly), and each entry's fold undercount stays
// bounded by the tracked primary decrement total plus the entry's own
// y-stage loss, so the reported slack is a certain error bound; the
// invariant "y-stage mass == primary counter" simply does not hold and is
// not asserted by the decoders.
#ifndef CASTREAM_CORE_CORRELATED_CHH_H_
#define CASTREAM_CORE_CORRELATED_CHH_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/core/correlated_heavy_hitters.h"  // HeavyHitter
#include "src/io/format.h"
#include "src/stream/types.h"

namespace castream {

/// \brief Tunables shared by both dedicated CHH kinds.
struct CorrelatedChhOptions {
  /// Heavy-hitter share resolution of the primary (x) stage: the table
  /// keeps ceil(2 / phi_eps) entries, so any item with frequency share
  /// >= phi is reported for phi >= phi_eps, and nothing below
  /// phi - phi_eps / 2 can be reported as certain.
  double phi_eps = 0.05;
  /// Share resolution of the per-entry y stage (cutoff granularity): each
  /// entry keeps ceil(2 / y_eps) y counters.
  double y_eps = 0.05;
  /// Nonzero: use exactly this many primary entries.
  uint32_t x_capacity_override = 0;
  /// Nonzero: use exactly this many y counters per entry.
  uint32_t y_capacity_override = 0;

  uint32_t XCapacity() const;
  uint32_t YCapacity() const;

  /// \brief Loud validation, enforced by MakeSummary before construction:
  /// both resolutions must be in (0, 1], and both effective capacities must
  /// land in [4, 2^20] — the same policy as the 'hh' candidate budget, so
  /// all three panel algorithms reject degenerate configs identically.
  Status Validate() const;
};

/// \brief Correlated heavy hitters via nested Misra-Gries (arXiv:1310.1161).
class CorrelatedNestedMisraGries {
 public:
  /// \brief `options` must pass Validate(); MakeSummary enforces this, and
  /// direct construction asserts it.
  explicit CorrelatedNestedMisraGries(const CorrelatedChhOptions& options);

  /// \brief Observes `weight` occurrences of (x, y). Counter summaries are
  /// insert-only, so weight <= 0 is a no-op (there is nothing to decrement
  /// back out of a Misra-Gries table).
  void Insert(uint64_t x, uint64_t y, int64_t weight = 1);

  /// \brief Batched ingest, exactly equivalent to one-at-a-time Insert in
  /// batch order.
  void InsertBatch(std::span<const Tuple> batch);
  void InsertBatch(std::initializer_list<Tuple> batch) {
    InsertBatch(std::span<const Tuple>(batch.begin(), batch.size()));
  }
  void InsertBatch(std::span<const WeightedTuple> batch);

  /// \brief Merges another summary with the same table configuration
  /// (PreconditionFailed otherwise) via the mergeable-summaries reduction;
  /// bit-for-bit the single-stream state when no table ever overflowed.
  Status MergeFrom(const CorrelatedNestedMisraGries& other);
  /// \brief The table-configuration check MergeFrom runs.
  Status CompatibleWith(const CorrelatedNestedMisraGries& other) const;

  /// \brief Scalar point query: the total folded counter mass at or below
  /// cutoff c — a deterministic, guaranteed-not-overcounting estimate of
  /// |{(x_i, y_i) : y_i <= c}| concentrated on the frequent items.
  Result<double> Query(uint64_t c) const;

  /// \brief Heavy hitters of the substream {(x, y) : y <= c}: every stored
  /// item whose folded estimate plus tracked undercount slack reaches
  /// phi * N, heaviest share first (HeavyHitter::estimated_f2_share holds
  /// the plain frequency share f_x(c) / N for the counter-based kinds).
  Result<std::vector<HeavyHitter>> QueryHeavyHitters(uint64_t c,
                                                     double phi) const;

  /// \brief Total stream weight N observed (exact; merges add).
  uint64_t TotalWeight() const { return total_weight_; }
  /// \brief Total primary-stage decrement mass: a certain bound on any
  /// single item's primary undercount, <= N / (XCapacity() + 1).
  uint64_t PrimaryDecrements() const { return primary_decrements_; }

  [[nodiscard]] Status Serialize(std::string* out) const;
  [[nodiscard]] static Result<CorrelatedNestedMisraGries> Deserialize(
      std::span<const std::byte> bytes);

  size_t SizeBytes() const;
  const CorrelatedChhOptions& options() const { return options_; }

 private:
  struct Entry {
    uint64_t count = 0;
    /// Mass removed from this entry's nested table by its decrement rounds
    /// (exactly tracked, merges add): Sum_{y <= c} of the nested
    /// undercounts is at most nested_loss for every cutoff c.
    uint64_t nested_loss = 0;
    std::map<uint64_t, uint64_t> nested;
  };

  void NestedInsert(Entry& e, uint64_t y, uint64_t w);
  void ShrinkNested(Entry& e);
  void ShrinkPrimary();
  uint64_t FoldBelow(const Entry& e, uint64_t c) const;

  CorrelatedChhOptions options_;
  uint64_t total_weight_ = 0;
  uint64_t primary_decrements_ = 0;
  std::map<uint64_t, Entry> table_;
};

/// \brief Correlated heavy hitters via Misra-Gries over x composed with a
/// per-entry Space-Saving y stage (arXiv:1611.04942).
class CorrelatedFastChh {
 public:
  explicit CorrelatedFastChh(const CorrelatedChhOptions& options);

  void Insert(uint64_t x, uint64_t y, int64_t weight = 1);
  void InsertBatch(std::span<const Tuple> batch);
  void InsertBatch(std::initializer_list<Tuple> batch) {
    InsertBatch(std::span<const Tuple>(batch.begin(), batch.size()));
  }
  void InsertBatch(std::span<const WeightedTuple> batch);

  /// \brief Merge under the same configuration identity as the nested-MG
  /// kind; the y stages merge with the parallel Space-Saving rule (shared
  /// slots add counts and errors, one-sided slots inherit the other side's
  /// minimum as extra error, then the top YCapacity() slots survive).
  Status MergeFrom(const CorrelatedFastChh& other);
  /// \brief The table-configuration check MergeFrom runs.
  Status CompatibleWith(const CorrelatedFastChh& other) const;

  /// \brief Scalar point query: Sum over entries of the guaranteed per-slot
  /// lower bounds (count - inherited error) at or below c.
  Result<double> Query(uint64_t c) const;

  /// \brief Heavy hitters of {(x, y) : y <= c}; an item is reported when
  /// its certain upper bound — below-cutoff counts, plus above-cutoff
  /// inherited error (mass that may really belong below the cutoff), plus
  /// the primary decrement total — reaches phi * N. estimated_frequency is
  /// the Space-Saving point estimate Sum_{y <= c} count.
  Result<std::vector<HeavyHitter>> QueryHeavyHitters(uint64_t c,
                                                     double phi) const;

  uint64_t TotalWeight() const { return total_weight_; }
  uint64_t PrimaryDecrements() const { return primary_decrements_; }

  [[nodiscard]] Status Serialize(std::string* out) const;
  [[nodiscard]] static Result<CorrelatedFastChh> Deserialize(
      std::span<const std::byte> bytes);

  size_t SizeBytes() const;
  const CorrelatedChhOptions& options() const { return options_; }

 private:
  struct Slot {
    uint64_t count = 0;
    /// Mass inherited from the slot evicted at this key's (re-)admission,
    /// plus merge-time one-sided minima; always strictly below count.
    uint64_t error = 0;
  };
  struct Entry {
    uint64_t count = 0;
    std::map<uint64_t, Slot> stage;
  };

  void StageInsert(Entry& e, uint64_t y, uint64_t w);
  void MergeStage(Entry& into, const Entry& from);
  void ShrinkPrimary();

  CorrelatedChhOptions options_;
  uint64_t total_weight_ = 0;
  uint64_t primary_decrements_ = 0;
  std::map<uint64_t, Entry> table_;
};

}  // namespace castream

#endif  // CASTREAM_CORE_CORRELATED_CHH_H_
