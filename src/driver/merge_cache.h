// Epoch-keyed incremental merge engine, shared by the in-process
// ShardedDriver and the cross-process reducer (src/service/reducer.h).
//
// Both serve the same shape of query: "merge these S immutable snapshots
// into one whole-stream summary" — where between two queries only a few
// snapshots change. The paper's summaries are mergeable by construction,
// and merge *order* is an implementation detail (any order yields a valid
// summary of the union stream with the same (eps, delta) guarantees), so
// the engine uses one order: a binary merge tree. Leaves are the
// snapshots; each internal node memoizes the merge of its two children,
// keyed by the epochs of the leaves below it. When one snapshot changes,
// only the nodes on its root path are recomputed — O(log S) MergeFrom
// calls. A subtree with only one live child is aliased (no copy, no
// merge), so sparse tables stay cheap, and a repeated query over unchanged
// snapshots costs zero merges.
//
// The tree is deterministic: the same snapshot vector always yields the
// same answer bit-for-bit, whether the memo was churned incrementally or
// rebuilt from scratch. tests/sharded_equivalence_test.cc pins it against
// an independent fold in the same order (test::TreeOrderFold), and
// tests/merge_policy_test.cc pins its merge counts and its accuracy
// against exact oracles.
//
// Memory: the tree pins up to S-1 internal nodes (aliased nodes are free)
// on top of the S snapshots, but a node is not a second copy of its
// children. Bucket counters and sparse entries are copy-on-write
// (src/sketch/counter_matrix.h, src/sketch/cow_vector.h):
// a node built as a copy of its left child plus a merge of its right one
// shares every bucket the merge did not touch with the left leaf, and
// buckets adopted from the right child share that leaf's cells too. Only
// buckets merged from both sides get fresh storage. Callers that still
// cannot afford the nodes call Invalidate() between query bursts.
#ifndef CASTREAM_DRIVER_MERGE_CACHE_H_
#define CASTREAM_DRIVER_MERGE_CACHE_H_

#include <algorithm>
#include <atomic>
#include <concepts>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"

namespace castream {

/// \brief Copy of a summary: the copy constructor where available,
/// otherwise the explicit Clone() (AnySummary's move-only spelling). The
/// copy behaves as a deep copy — writes to either side never show in the
/// other — while unchanged bucket counters share storage copy-on-write.
template <typename Summary>
Summary SummaryDeepCopy(const Summary& s) {
  if constexpr (std::copy_constructible<Summary>) {
    return Summary(s);
  } else {
    return s.Clone();
  }
}

template <typename Summary>
class MergeCache {
 public:
  /// \brief `make_empty` produces the zero-stream summary: the answer when
  /// every slot is empty. It must be mergeable with every snapshot handed
  /// to Merge (same options and hash-family seed).
  explicit MergeCache(std::function<Summary()> make_empty)
      : make_empty_(std::move(make_empty)) {}

  MergeCache(const MergeCache&) = delete;
  MergeCache& operator=(const MergeCache&) = delete;

  /// \brief Merges snapshots 0..n-1 in tree order. snaps[i] == nullptr
  /// means "slot never published" and contributes nothing (its subtree is
  /// aliased past it). `epochs[i]` is slot i's publication epoch: equal
  /// epochs must imply equal snapshot contents, which is what makes the
  /// memo sound. A changed slot count (the reducer's table grows as
  /// workers register) drops the memo and rebuilds.
  Result<std::shared_ptr<const Summary>> Merge(
      const std::vector<std::shared_ptr<const Summary>>& snaps,
      const std::vector<uint64_t>& epochs) {
    // Concurrent callers serialize here; one that gathered its epochs just
    // before a publish may rebuild the memo from a snapshot one epoch
    // older than a racing caller merged. That only thrashes the cache (the
    // next call re-merges) — every consistent snapshot vector is a valid
    // whole-stream answer.
    std::lock_guard<std::mutex> lock(mu_);
    return MergeTreeLocked(snaps, epochs);
  }

  /// \brief Drops the memo; the next Merge rebuilds from scratch. Never
  /// needed for correctness.
  void Invalidate() {
    std::lock_guard<std::mutex> lock(mu_);
    DropTreeLocked();
  }

  /// \brief Cumulative MergeFrom calls performed — the "how incremental
  /// was it really" observable the regression tests assert on.
  uint64_t merges_performed() const {
    return merges_.load(std::memory_order_relaxed);
  }

 private:
  /// \brief The binary merge tree. Implicit heap layout over a power-of-two
  /// leaf row: node n's children are 2n and 2n+1, leaves for slots 0..S-1
  /// sit at leaf_base_ + s, slots past S (and never-published slots) are
  /// null and contribute nothing. A stale leaf dirties exactly its root
  /// path; dirty nodes are recomputed children-first (descending index
  /// order), each costing at most one MergeFrom — zero when a child is
  /// null (the node aliases the live child's pointer).
  Result<std::shared_ptr<const Summary>> MergeTreeLocked(
      const std::vector<std::shared_ptr<const Summary>>& snaps,
      const std::vector<uint64_t>& epochs) {
    const size_t count = snaps.size();
    if (count == 0) return EmptyLocked();
    if (leaf_count_ != count) {
      leaf_base_ = 1;
      while (leaf_base_ < count) leaf_base_ <<= 1;
      nodes_.assign(2 * leaf_base_, nullptr);
      leaf_epochs_.assign(count, kNeverMerged);
      leaf_count_ = count;
    }
    dirty_.clear();
    for (size_t s = 0; s < count; ++s) {
      if (leaf_epochs_[s] == epochs[s]) continue;
      nodes_[leaf_base_ + s] = snaps[s];
      leaf_epochs_[s] = epochs[s];
      for (size_t n = (leaf_base_ + s) >> 1; n >= 1; n >>= 1) {
        dirty_.push_back(n);
      }
    }
    if (!dirty_.empty()) {
      // Children-first: a child's index is strictly greater than its
      // parent's, so descending order recomputes bottom-up; duplicates
      // (shared path suffixes of several stale leaves) collapse to one
      // recompute.
      std::sort(dirty_.begin(), dirty_.end(), std::greater<size_t>());
      dirty_.erase(std::unique(dirty_.begin(), dirty_.end()), dirty_.end());
      for (size_t n : dirty_) {
        const std::shared_ptr<const Summary>& left = nodes_[2 * n];
        const std::shared_ptr<const Summary>& right = nodes_[2 * n + 1];
        if (left == nullptr) {
          nodes_[n] = right;
        } else if (right == nullptr) {
          nodes_[n] = left;
        } else {
          auto merged = std::make_shared<Summary>(SummaryDeepCopy(*left));
          if (Status st = merged->MergeFrom(*right); !st.ok()) {
            // The leaf epochs above were already advanced; leaving them
            // while their ancestors are stale would poison every later
            // call. Drop the whole tree memo so the next Merge rebuilds.
            DropTreeLocked();
            return st;
          }
          merges_.fetch_add(1, std::memory_order_relaxed);
          nodes_[n] = std::move(merged);
        }
      }
    }
    if (nodes_[1] == nullptr) return EmptyLocked();
    return nodes_[1];
  }

  void DropTreeLocked() {
    nodes_.clear();
    leaf_epochs_.clear();
    leaf_base_ = 0;
    leaf_count_ = 0;
  }

  /// \brief The shared zero-stream summary (lazily built, immutable): the
  /// answer when no slot ever published.
  std::shared_ptr<const Summary> EmptyLocked() {
    if (empty_ == nullptr) {
      empty_ = std::make_shared<const Summary>(make_empty_());
    }
    return empty_;
  }

  static constexpr uint64_t kNeverMerged = ~uint64_t{0};

  std::function<Summary()> make_empty_;
  std::mutex mu_;
  std::shared_ptr<const Summary> empty_;

  // Tree memo: implicit heap of 2 * leaf_base_ nodes (index 0 unused,
  // root at 1, leaves at leaf_base_ + s); leaf_epochs_[s] is the epoch
  // leaf s was last refreshed at. dirty_ is scratch, kept to avoid a
  // per-Merge allocation on the hot zero-change path.
  std::vector<std::shared_ptr<const Summary>> nodes_;
  std::vector<uint64_t> leaf_epochs_;
  std::vector<size_t> dirty_;
  size_t leaf_base_ = 0;
  size_t leaf_count_ = 0;

  std::atomic<uint64_t> merges_{0};
};

}  // namespace castream

#endif  // CASTREAM_DRIVER_MERGE_CACHE_H_
