// Contiguous depth x width counter storage shared by the linear sketches
// (AMS-F2 and CountSketch are the same counter structure with different
// estimators; both are linear maps of the input, hence turnstile-capable and
// mergeable by addition).
//
// Copy-on-write: copying a matrix shares its cells, and the first write to
// shared cells takes a private copy. In the correlated framework a dyadic
// bucket stops changing once it closes or splits, so snapshots, clones and
// merge-tree nodes share every closed bucket's counters with the summary
// they were copied from; only buckets that are still written pay for a copy.
//
// Thread safety: distinct CounterMatrix objects that share cells may be used
// on different threads (a snapshot read on one thread while the owner keeps
// writing on another). The reference count is what makes that sound: the
// uniqueness test is an acquire load and a release is an acq_rel decrement,
// so every read a now-dropped sharer made happens-before the owner's next
// in-place write.
#ifndef CASTREAM_SKETCH_COUNTER_MATRIX_H_
#define CASTREAM_SKETCH_COUNTER_MATRIX_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

namespace castream {

/// \brief Row-major matrix of int64 counters for linear sketches, with
/// copy-on-write cell storage.
class CounterMatrix {
 public:
  CounterMatrix(uint32_t depth, uint32_t width)
      : depth_(depth), width_(width), block_(Allocate(CellCount(), true)) {}

  CounterMatrix(const CounterMatrix& other) noexcept
      : depth_(other.depth_), width_(other.width_), block_(other.block_) {
    block_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  CounterMatrix(CounterMatrix&& other) noexcept
      : depth_(other.depth_),
        width_(other.width_),
        block_(std::exchange(other.block_, nullptr)) {}
  CounterMatrix& operator=(CounterMatrix other) noexcept {
    std::swap(depth_, other.depth_);
    std::swap(width_, other.width_);
    std::swap(block_, other.block_);
    return *this;
  }
  ~CounterMatrix() { Release(block_); }

  int64_t at(uint32_t row, uint32_t col) const {
    return Cells(block_)[static_cast<size_t>(row) * width_ + col];
  }

  /// \brief The row-major cells for one update: row r, column c lives at
  /// index r * width() + c. Takes a private copy first when the cells are
  /// shared, so call it once per update, not once per cell; the pointer is
  /// valid until this matrix is next copied, assigned or destroyed.
  int64_t* MutableCells() {
    if (block_->refs.load(std::memory_order_acquire) != 1) Unshare();
    return Cells(block_);
  }

  /// \brief Address of one cell, for software prefetch ahead of an update
  /// loop; never dereferenced by the caller.
  const int64_t* CellAddr(uint32_t row, uint32_t col) const {
    return &Cells(block_)[static_cast<size_t>(row) * width_ + col];
  }

  /// \brief Cell-wise addition; dimensions must match (checked by caller).
  /// Unshared cells are added in place; shared ones are replaced by one
  /// fresh allocation holding the sums, so the merge costs no more than an
  /// in-place add after a copy.
  void AddFrom(const CounterMatrix& other) {
    const size_t n = CellCount();
    const int64_t* b = Cells(other.block_);
    if (block_->refs.load(std::memory_order_acquire) == 1) {
      int64_t* a = Cells(block_);
      for (size_t i = 0; i < n; ++i) a[i] += b[i];
      return;
    }
    Header* fresh = Allocate(n, false);
    const int64_t* a = Cells(block_);
    int64_t* out = Cells(fresh);
    for (size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
    Reset(fresh);
  }

  /// \brief True when another matrix shares this one's cells (tests).
  bool SharesCellsWith(const CounterMatrix& other) const {
    return block_ == other.block_;
  }

  uint32_t depth() const { return depth_; }
  uint32_t width() const { return width_; }

  /// \brief Number of stored counters (the "tuples stored" unit used by the
  /// paper's space plots).
  size_t CounterCount() const { return CellCount(); }
  /// \brief Logical size: the cells this matrix answers from, whether or
  /// not another matrix shares them.
  size_t SizeBytes() const { return CellCount() * sizeof(int64_t); }

  /// \brief Sum of squares of one row, computed from scratch.
  int64_t RowSumSquares(uint32_t row) const {
    const int64_t* p = Cells(block_) + static_cast<size_t>(row) * width_;
    int64_t ss = 0;
    for (uint32_t c = 0; c < width_; ++c) ss += p[c] * p[c];
    return ss;
  }

 private:
  // One allocation: the reference count, padded to 16 bytes so the cells
  // that follow keep malloc's alignment for vectorized loops.
  struct alignas(16) Header {
    std::atomic<uint32_t> refs;
  };

  static int64_t* Cells(Header* h) { return reinterpret_cast<int64_t*>(h + 1); }
  static const int64_t* Cells(const Header* h) {
    return reinterpret_cast<const int64_t*>(h + 1);
  }

  static Header* Allocate(size_t cells, bool zeroed) {
    const size_t bytes = sizeof(Header) + cells * sizeof(int64_t);
    void* p = zeroed ? std::calloc(1, bytes) : std::malloc(bytes);
    if (p == nullptr) throw std::bad_alloc();
    return new (p) Header{1};
  }

  static void Release(Header* h) {
    if (h != nullptr && h->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      h->~Header();
      std::free(h);
    }
  }

  // Out of line: the update paths that call MutableCells stay small enough
  // to inline into the ingest loops, and this runs at most once per shared
  // matrix.
  [[gnu::noinline]] void Unshare() {
    Header* fresh = Allocate(CellCount(), false);
    std::memcpy(Cells(fresh), Cells(block_), SizeBytes());
    Reset(fresh);
  }

  void Reset(Header* fresh) {
    Release(block_);
    block_ = fresh;
  }

  size_t CellCount() const { return static_cast<size_t>(depth_) * width_; }

  uint32_t depth_;
  uint32_t width_;
  Header* block_;  // null only in a moved-from matrix (destroy or assign it)
};

}  // namespace castream

#endif  // CASTREAM_SKETCH_COUNTER_MATRIX_H_
