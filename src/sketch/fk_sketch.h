// Fk frequency-moment sketch for k > 2, a practical variant of the
// Indyk-Woodruff framework [22].
//
// Structure (the same recursive-subsampling skeleton as [22]):
//   * L geometric subsampling levels; item x survives to level j iff its
//     hash has at least j leading zero bits, so level j is a uniform
//     2^-j-sample of the item universe;
//   * each level carries a CountSketch for frequency recovery, a small KMV
//     for the level's distinct count, and a bounded candidate set of the
//     items with the largest estimated frequencies at that level.
// Estimation splits Fk into a heavy part (top candidates at level 0,
// estimated directly) and a light part (candidates at the deepest level
// whose population fits the sketch, Horvitz-Thompson scaled by 2^j). This
// single-recursion variant trades the full logarithmic recursion of [22]
// for implementation clarity; its error is dominated by the same two terms
// (heavy-hitter estimation error and subsampling variance) and it inherits
// mergeability from its linear parts. Accuracy knobs: width/depth/candidates.
#ifndef CASTREAM_SKETCH_FK_SKETCH_H_
#define CASTREAM_SKETCH_FK_SKETCH_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/sketch/count_sketch.h"
#include "src/sketch/kmv.h"

namespace castream {

/// \brief Tuning parameters for FkSketch.
struct FkSketchOptions {
  /// Moment order; must be > 0 (k=2 works but AmsF2Sketch is cheaper).
  double k = 3.0;
  /// Subsampling levels; level j samples the universe at rate 2^-j.
  uint32_t levels = 20;
  /// CountSketch dimensions per level.
  uint32_t width = 512;
  uint32_t depth = 4;
  /// Candidates retained per level (pruned lazily at 2x this bound).
  uint32_t candidates = 64;
  /// KMV size for per-level distinct counts.
  uint32_t kmv_k = 64;
};

class FkSketch;

/// \brief The per-item randomness of FkSketch's recursive subsampling,
/// computed once per record: the deepest level x survives to. The per-level
/// CountSketches use independent hash families (they must, for the
/// Indyk-Woodruff analysis), so their hashing stays per-level; what the
/// pre-hash removes is the level-assignment hash shared by every FkSketch
/// of one family.
struct FkPreHashed {
  uint64_t x = 0;
  uint32_t max_level = 0;
};

/// \brief Factory for mergeable FkSketch instances. All sketches of one
/// factory share hash functions (shared_ptr-held, immutable), so they can be
/// merged; the factory object itself may be destroyed before its sketches.
class FkSketchFactory {
 public:
  FkSketchFactory(FkSketchOptions options, uint64_t seed);

  FkSketch Create() const;

  /// \brief Computes x's subsample-level assignment once; feeds the
  /// Insert(FkPreHashed) overload of every sketch in this family.
  FkPreHashed Prehash(uint64_t x) const;

 private:
  friend class FkSketch;
  struct Shared;
  std::shared_ptr<const Shared> shared_;
};

/// \brief Mergeable estimator of Fk = sum_i f_i^k (insert-only weights >= 0;
/// negative weights are accepted by the linear parts but the estimator is
/// analyzed for the cash-register model, matching Section 3 of the paper).
class FkSketch {
 public:
  /// \brief Adds `weight` to item x's frequency. Expected O(depth) work:
  /// the number of levels an item updates is geometric with mean 2.
  void Insert(uint64_t x, int64_t weight = 1);

  /// \brief Pre-hashed insert: identical effect to Insert(ph.x, weight)
  /// without re-evaluating the level-assignment hash.
  void Insert(const FkPreHashed& ph, int64_t weight = 1);

  /// \brief Two-part (heavy + subsampled light) estimate of Fk.
  double Estimate() const;

  Status MergeFrom(const FkSketch& other);

  size_t SizeBytes() const;
  size_t CounterCount() const;

  /// \brief Items tracked as heavy candidates at level 0 with their current
  /// estimated frequencies, best first; used by heavy-hitter queries.
  std::vector<std::pair<uint64_t, double>> TopCandidates(uint32_t n) const;

 private:
  friend class FkSketchFactory;
  struct Level {
    CountSketch cs;
    KmvSketch kmv;
    // Candidate item ids; frequencies are re-estimated on demand so the set
    // stays correct after merges.
    std::vector<uint64_t> candidates;

    Level(CountSketch cs_in, KmvSketch kmv_in)
        : cs(std::move(cs_in)), kmv(std::move(kmv_in)) {}
  };

  explicit FkSketch(std::shared_ptr<const FkSketchFactory::Shared> shared);

  uint32_t MaxLevelOf(uint64_t x) const;
  void PruneCandidates(Level& level) const;
  void AddCandidate(Level& level, uint64_t x) const;

  std::shared_ptr<const FkSketchFactory::Shared> shared_;
  std::vector<Level> levels_;
};

}  // namespace castream

#endif  // CASTREAM_SKETCH_FK_SKETCH_H_
