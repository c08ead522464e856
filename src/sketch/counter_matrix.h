// Contiguous depth x width counter storage shared by the linear sketches
// (AMS-F2 and CountSketch are the same counter structure with different
// estimators; both are linear maps of the input, hence turnstile-capable and
// mergeable by addition).
//
// Copy-on-write: the cells live in a CowVector (src/sketch/cow_vector.h),
// so copying a matrix shares its cells and the first write to shared cells
// takes a private copy; that header states the thread-safety rule.
#ifndef CASTREAM_SKETCH_COUNTER_MATRIX_H_
#define CASTREAM_SKETCH_COUNTER_MATRIX_H_

#include <cstddef>
#include <cstdint>

#include "src/sketch/cow_vector.h"

namespace castream {

/// \brief Row-major matrix of int64 counters for linear sketches, with
/// copy-on-write cell storage.
class CounterMatrix {
 public:
  CounterMatrix(uint32_t depth, uint32_t width)
      : depth_(depth),
        width_(width),
        cells_(static_cast<size_t>(depth) * width) {}

  int64_t at(uint32_t row, uint32_t col) const {
    return cells_[static_cast<size_t>(row) * width_ + col];
  }

  /// \brief The row-major cells, read-only: row r, column c lives at index
  /// r * width() + c. Never copies; valid until this matrix is next
  /// written, copied, assigned or destroyed.
  const int64_t* cells() const { return cells_.begin(); }

  /// \brief The cells for one update, laid out as cells(). Takes a private
  /// copy first when the cells are shared, so call it once per update, not
  /// once per cell; the pointer is valid until this matrix is next copied,
  /// assigned or destroyed.
  int64_t* MutableCells() { return cells_.MutableData(); }

  /// \brief Cell-wise addition; dimensions must match (checked by caller).
  void AddFrom(const CounterMatrix& other) { cells_.AddFrom(other.cells_); }

  /// \brief True when another matrix shares this one's cells (tests).
  bool SharesCellsWith(const CounterMatrix& other) const {
    return cells_.SharesStorageWith(other.cells_);
  }

  uint32_t depth() const { return depth_; }
  uint32_t width() const { return width_; }

  /// \brief Number of stored counters (the "tuples stored" unit used by the
  /// paper's space plots).
  size_t CounterCount() const { return cells_.size(); }
  /// \brief Logical size: the cells this matrix answers from, whether or
  /// not another matrix shares them.
  size_t SizeBytes() const { return cells_.size() * sizeof(int64_t); }

  /// \brief Sum of squares of one row, computed from scratch.
  int64_t RowSumSquares(uint32_t row) const {
    const int64_t* p = cells() + static_cast<size_t>(row) * width_;
    int64_t ss = 0;
    for (uint32_t c = 0; c < width_; ++c) ss += p[c] * p[c];
    return ss;
  }

 private:
  uint32_t depth_;
  uint32_t width_;
  CowVector<int64_t> cells_;  // empty only in a moved-from matrix
};

}  // namespace castream

#endif  // CASTREAM_SKETCH_COUNTER_MATRIX_H_
