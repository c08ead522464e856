// Exact aggregates over an explicit frequency map.
//
// Two roles, both from the paper's evaluation (Section 5):
//   * the "existing linear storage solution" baseline whose memory the
//     sketches are compared against;
//   * ground truth for every accuracy test in tests/.
// ExactAggregate also satisfies the sketch interface used by the correlated
// framework (Insert / Estimate / MergeFrom / SizeBytes), which lets the unit
// tests exercise Algorithms 1-3 with *zero* sketch noise and isolate the
// framework's own approximation (the discarded-bucket error of Lemmas 4-5).
#ifndef CASTREAM_SKETCH_EXACT_H_
#define CASTREAM_SKETCH_EXACT_H_

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <unordered_map>

#include "src/common/math_util.h"
#include "src/common/status.h"

namespace castream {

/// \brief Which statistic ExactAggregate reports.
enum class AggregateKind {
  kF0,     ///< number of distinct items with nonzero net frequency
  kF1,     ///< sum of |net frequency|
  kF2,     ///< sum of squared net frequency
  kFk,     ///< sum of |net frequency|^k for a caller-chosen k
  kRarity  ///< fraction of distinct items with net frequency exactly 1
};

class ExactAggregate;

/// \brief Factory so ExactAggregate can stand in for a sketch family.
class ExactAggregateFactory {
 public:
  explicit ExactAggregateFactory(AggregateKind kind, double k = 2.0)
      : kind_(kind), k_(k) {}

  ExactAggregate Create() const;
  AggregateKind kind() const { return kind_; }
  double k() const { return k_; }

 private:
  AggregateKind kind_;
  double k_;
};

/// \brief Exact, linear-memory aggregate over items with integer weights.
///
/// All statistics are maintained incrementally, so Estimate() is O(1) —
/// required because the correlated framework consults the estimate on every
/// insert for its bucket-closing rule (Algorithm 2 line 13).
class ExactAggregate {
 public:
  void Insert(uint64_t x, int64_t weight = 1) {
    if (weight == 0) return;
    int64_t& c = counts_[x];
    const int64_t old = c;
    c += weight;
    f1_ += std::abs(c) - std::abs(old);
    f2_ += static_cast<double>(c) * c - static_cast<double>(old) * old;
    if (kind_ == AggregateKind::kFk) {
      fk_ += std::pow(std::abs(static_cast<double>(c)), k_) -
             std::pow(std::abs(static_cast<double>(old)), k_);
    }
    ones_ += (c == 1) - (old == 1);
    if (c == 0) counts_.erase(x);
  }

  /// \brief The exact value of the configured statistic. O(1).
  double Estimate() const {
    switch (kind_) {
      case AggregateKind::kF0:
        return static_cast<double>(counts_.size());
      case AggregateKind::kF1:
        return static_cast<double>(f1_);
      case AggregateKind::kF2:
        return f2_;
      case AggregateKind::kFk:
        return fk_;
      case AggregateKind::kRarity:
        return counts_.empty()
                   ? 0.0
                   : static_cast<double>(ones_) /
                         static_cast<double>(counts_.size());
    }
    return 0.0;
  }

  Status MergeFrom(const ExactAggregate& other) {
    if (kind_ != other.kind_ || k_ != other.k_) {
      return Status::PreconditionFailed(
          "ExactAggregate::MergeFrom: mismatched aggregate kinds");
    }
    for (const auto& [x, c] : other.counts_) Insert(x, c);
    return Status::OK();
  }

  /// \brief Exact frequency of one item (0 if absent).
  int64_t Frequency(uint64_t x) const {
    auto it = counts_.find(x);
    return it == counts_.end() ? 0 : it->second;
  }

  size_t SizeBytes() const {
    // unordered_map node overhead approximated at 2 pointers per entry.
    return counts_.size() * (sizeof(uint64_t) + sizeof(int64_t) + 16);
  }
  size_t CounterCount() const { return counts_.size(); }

 private:
  friend class ExactAggregateFactory;
  ExactAggregate(AggregateKind kind, double k) : kind_(kind), k_(k) {}

  AggregateKind kind_;
  double k_;
  std::unordered_map<uint64_t, int64_t> counts_;
  // Incrementally maintained statistics (see Insert).
  int64_t f1_ = 0;
  double f2_ = 0.0;
  double fk_ = 0.0;
  int64_t ones_ = 0;
};

inline ExactAggregate ExactAggregateFactory::Create() const {
  return ExactAggregate(kind_, k_);
}

}  // namespace castream

#endif  // CASTREAM_SKETCH_EXACT_H_
