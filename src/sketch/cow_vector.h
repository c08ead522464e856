// A growable array of trivially copyable elements with copy-on-write
// storage: copying shares the elements, and the first write to shared
// elements takes a private copy. It is the one refcounted block behind the
// linear sketches' storage: CounterMatrix keeps a dense bucket's counter
// cells in one sized once, and the sparse sketches keep their exact entries
// in one. In the correlated framework a dyadic bucket stops changing once it
// closes or splits, so a summary copy (a publish snapshot, a clone, a
// merge-tree node) shares every closed bucket's storage with the summary it
// was copied from; only buckets that are still written pay for a copy.
//
// Thread safety: distinct CowVector objects that share storage may be used
// on different threads (a snapshot read on one thread while the owner keeps
// writing on another). The reference count is what makes that sound: the
// uniqueness test is an acquire load and a release is an acq_rel decrement,
// so every read a now-dropped sharer made happens-before the owner's next
// in-place write.
#ifndef CASTREAM_SKETCH_COW_VECTOR_H_
#define CASTREAM_SKETCH_COW_VECTOR_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>

namespace castream {

template <typename T>
class CowVector {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);

 public:
  CowVector() = default;
  /// \brief `n` zero-valued elements.
  explicit CowVector(size_t n)
      : block_(n == 0 ? nullptr : Allocate(n, n, /*zeroed=*/true)) {}
  CowVector(const CowVector& other) noexcept : block_(other.block_) {
    if (block_ != nullptr) block_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  CowVector(CowVector&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)) {}
  CowVector& operator=(CowVector other) noexcept {
    std::swap(block_, other.block_);
    return *this;
  }
  ~CowVector() { Release(block_); }

  size_t size() const { return block_ == nullptr ? 0 : block_->size; }
  bool empty() const { return size() == 0; }
  const T* begin() const { return block_ == nullptr ? nullptr : Data(block_); }
  const T* end() const { return begin() + size(); }
  const T& operator[](size_t i) const { return Data(block_)[i]; }

  /// \brief The elements for in-place updates. Takes a private copy first
  /// when the storage is shared, so call it once per update; the pointer is
  /// valid until this vector is next grown, copied, assigned or destroyed.
  T* MutableData() {
    if (block_ == nullptr) return nullptr;
    if (!Unique()) Reallocate(block_->capacity);
    return Data(block_);
  }

  void push_back(const T& value) {
    const size_t n = size();
    if (block_ == nullptr || n == block_->capacity) {
      Reallocate(std::max<size_t>(n + 1, 2 * n));
    } else if (!Unique()) {
      Reallocate(block_->capacity);
    }
    Data(block_)[n] = value;
    ++block_->size;
  }

  void reserve(size_t n) {
    if (n > (block_ == nullptr ? 0 : block_->capacity)) Reallocate(n);
  }

  /// \brief Drops every element and this vector's hold on the storage.
  void clear() {
    Release(block_);
    block_ = nullptr;
  }

  /// \brief Element-wise `(*this)[i] += other[i]`; sizes must match
  /// (checked by the caller). Unshared storage is added in place; shared
  /// storage is replaced by one fresh block holding the sums, so adding into
  /// a copy costs no more than an in-place add.
  void AddFrom(const CowVector& other) {
    const size_t n = size();
    if (n == 0) return;
    const T* b = Data(other.block_);
    if (Unique()) {
      T* a = Data(block_);
      for (size_t i = 0; i < n; ++i) a[i] += b[i];
      return;
    }
    Header* fresh = Allocate(n, n, /*zeroed=*/false);
    const T* a = Data(block_);
    T* out = Data(fresh);
    for (size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
    Reset(fresh);
  }

  /// \brief True when another vector shares this one's storage (tests).
  bool SharesStorageWith(const CowVector& other) const {
    return block_ != nullptr && block_ == other.block_;
  }

 private:
  // One allocation: reference count, size and capacity, padded so the
  // elements that follow keep malloc's alignment for vectorized loops.
  struct alignas(16) Header {
    std::atomic<uint32_t> refs;
    uint32_t size;
    uint32_t capacity;
  };
  static_assert(alignof(T) <= alignof(Header));

  static T* Data(Header* h) { return reinterpret_cast<T*>(h + 1); }
  static const T* Data(const Header* h) {
    return reinterpret_cast<const T*>(h + 1);
  }

  static Header* Allocate(size_t capacity, size_t size, bool zeroed) {
    if (capacity > std::numeric_limits<uint32_t>::max()) {
      throw std::bad_alloc();
    }
    const size_t bytes = sizeof(Header) + capacity * sizeof(T);
    void* p = zeroed ? std::calloc(1, bytes) : std::malloc(bytes);
    if (p == nullptr) throw std::bad_alloc();
    return new (p) Header{1, static_cast<uint32_t>(size),
                          static_cast<uint32_t>(capacity)};
  }

  static void Release(Header* h) {
    if (h != nullptr && h->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      h->~Header();
      std::free(h);
    }
  }

  bool Unique() const {
    return block_->refs.load(std::memory_order_acquire) == 1;
  }

  // Moves the elements into a fresh, unshared block of `capacity` slots.
  // Out of line: the update paths that call MutableData stay small enough
  // to inline into the ingest loops, and this runs at most once per shared
  // or full block.
  [[gnu::noinline]] void Reallocate(size_t capacity) {
    const size_t n = size();
    Header* fresh = Allocate(capacity, n, /*zeroed=*/false);
    if (n > 0) std::memcpy(Data(fresh), Data(block_), n * sizeof(T));
    Reset(fresh);
  }

  void Reset(Header* fresh) {
    Release(block_);
    block_ = fresh;
  }

  Header* block_ = nullptr;
};

}  // namespace castream

#endif  // CASTREAM_SKETCH_COW_VECTOR_H_
