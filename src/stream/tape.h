// StoredStream ("tape"): the multipass model of Section 4.2.
//
// The paper's multipass setting assumes data on a medium that supports
// efficient sequential scans (tape) while the algorithm's working memory
// stays small. StoredStream materializes a weighted stream once and hands
// out sequential passes, counting them so benches can report the
// pass/space tradeoff of Theorem 7.
#ifndef CASTREAM_STREAM_TAPE_H_
#define CASTREAM_STREAM_TAPE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/stream/types.h"

namespace castream {

/// \brief A re-scannable weighted stream with a pass counter.
class StoredStream {
 public:
  void Append(WeightedTuple t) { data_.push_back(t); }
  void Append(uint64_t x, uint64_t y, int64_t weight) {
    data_.push_back(WeightedTuple{x, y, weight});
  }

  /// \brief One sequential pass: applies `fn` to every element in arrival
  /// order and increments the pass counter.
  void Scan(const std::function<void(const WeightedTuple&)>& fn) const {
    ++passes_;
    for (const WeightedTuple& t : data_) fn(t);
  }

  size_t size() const { return data_.size(); }
  const std::vector<WeightedTuple>& data() const { return data_; }

  /// \brief Number of sequential passes taken so far (the resource the
  /// lower bound of Section 4.1 trades against space).
  uint64_t passes() const { return passes_; }
  void ResetPassCount() { passes_ = 0; }

 private:
  std::vector<WeightedTuple> data_;
  mutable uint64_t passes_ = 0;
};

}  // namespace castream

#endif  // CASTREAM_STREAM_TAPE_H_
