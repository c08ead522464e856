// The Unified Summary API: one type-erased facade over the durable
// correlated summaries, so drivers, examples, and tools are written once
// instead of per-type.
//
// Every concrete summary models the same protocol — Insert / InsertBatch /
// MergeFrom / CompatibleWith / Query / Serialize / static Deserialize (the
// SummaryProtocol concept below) — and AnySummary erases it behind a small
// virtual interface. The SummaryRegistry maps SummaryKind tags (also the
// wire-format tags, src/io/format.h) to builders and deserializers, so
// MakeSummary("f2", opts, seed) and AnySummary::Deserialize(blob) work
// uniformly; a blob's own kind tag selects the decoder.
//
// Cross-process sharding rests on this: N workers call MakeSummary with the
// same kind/options/seed, ingest disjoint partitions, Serialize to files,
// and a reducer Deserializes and MergeFrom-s the blobs — the value-based
// hash-family checks accept peers rebuilt from (seed, dims) in another
// process. See examples/castream_shardctl.cpp for the end-to-end tool.
#ifndef CASTREAM_CORE_ANY_SUMMARY_H_
#define CASTREAM_CORE_ANY_SUMMARY_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/core/correlated_chh.h"
#include "src/core/correlated_f0.h"
#include "src/core/correlated_fk.h"
#include "src/core/correlated_heavy_hitters.h"
#include "src/io/format.h"
#include "src/stream/types.h"

namespace castream {

/// \brief The uniform protocol all durable summaries model (the scalar
/// Query is intentionally not part of it: CorrelatedF2HeavyHitters exposes
/// QueryF2 instead, which AnySummary::Query maps onto).
template <typename T>
concept SummaryProtocol = requires(T s, const T& cs, std::string* out,
                                   std::span<const Tuple> batch,
                                   std::span<const WeightedTuple> wbatch,
                                   std::span<const std::byte> bytes) {
  s.Insert(uint64_t{}, uint64_t{});
  s.InsertBatch(batch);
  s.InsertBatch(wbatch);
  { s.MergeFrom(cs) } -> std::same_as<Status>;
  { cs.CompatibleWith(cs) } -> std::same_as<Status>;
  { cs.Serialize(out) } -> std::same_as<Status>;
  { T::Deserialize(bytes) } -> std::same_as<Result<T>>;
  { cs.SizeBytes() } -> std::convertible_to<size_t>;
};

static_assert(SummaryProtocol<CorrelatedF2Sketch>);
static_assert(SummaryProtocol<CorrelatedF0Sketch>);
static_assert(SummaryProtocol<CorrelatedRaritySketch>);
static_assert(SummaryProtocol<CorrelatedF2HeavyHitters>);
static_assert(SummaryProtocol<CorrelatedNestedMisraGries>);
static_assert(SummaryProtocol<CorrelatedFastChh>);

/// \brief Union of the tunables of every registered summary kind, so one
/// options struct configures MakeSummary for all of them. Fields irrelevant
/// to a kind are ignored by it.
struct SummaryOptions {
  /// Target relative error (all kinds).
  double eps = 0.1;
  /// Target failure probability (all kinds).
  double delta = 0.05;
  /// y values live in [0, y_max] (all kinds).
  uint64_t y_max = (uint64_t{1} << 20) - 1;
  /// Upper bound on the aggregate over any prefix (framework kinds: f2, hh).
  double f_max_hint = 1e12;
  /// Item-identifier domain bound (sampling kinds: f0, rarity).
  uint64_t x_domain = (uint64_t{1} << 20) - 1;
  /// Heavy-hitter share resolution (kinds hh, chh_mg, chh_fast; also sizes
  /// the dedicated CHH kinds' primary tables at ceil(2 / phi_eps) entries).
  double phi_eps = 0.05;
  /// Heavy-hitter candidate budget (kind hh); must be in [4, 2^20].
  uint32_t max_candidates = 64;
  /// Per-entry y-stage share resolution (kinds chh_mg, chh_fast).
  double chh_y_eps = 0.05;
  /// Nonzero: exact primary / y-stage table capacities for the dedicated
  /// CHH kinds, overriding the eps-derived sizes (see CorrelatedChhOptions).
  uint32_t chh_x_capacity = 0;
  uint32_t chh_y_capacity = 0;
};

/// \brief Move-only type-erased holder of any registered summary.
///
/// A default-constructed AnySummary is empty: queries and Serialize fail
/// with InvalidArgument, inserts are debug-asserted no-ops. Obtain real ones
/// from MakeSummary, Deserialize, or by wrapping a concrete summary.
class AnySummary {
 public:
  AnySummary() = default;

  explicit AnySummary(CorrelatedF2Sketch s)
      : impl_(std::make_unique<Model<CorrelatedF2Sketch>>(
            SummaryKind::kCorrelatedF2, std::move(s))) {}
  explicit AnySummary(CorrelatedF0Sketch s)
      : impl_(std::make_unique<Model<CorrelatedF0Sketch>>(
            SummaryKind::kCorrelatedF0, std::move(s))) {}
  explicit AnySummary(CorrelatedRaritySketch s)
      : impl_(std::make_unique<Model<CorrelatedRaritySketch>>(
            SummaryKind::kCorrelatedRarity, std::move(s))) {}
  explicit AnySummary(CorrelatedF2HeavyHitters s)
      : impl_(std::make_unique<Model<CorrelatedF2HeavyHitters>>(
            SummaryKind::kCorrelatedF2HeavyHitters, std::move(s))) {}
  explicit AnySummary(CorrelatedNestedMisraGries s)
      : impl_(std::make_unique<Model<CorrelatedNestedMisraGries>>(
            SummaryKind::kCorrelatedNestedMisraGries, std::move(s))) {}
  explicit AnySummary(CorrelatedFastChh s)
      : impl_(std::make_unique<Model<CorrelatedFastChh>>(
            SummaryKind::kCorrelatedFastChh, std::move(s))) {}

  AnySummary(AnySummary&&) = default;
  AnySummary& operator=(AnySummary&&) = default;

  /// \brief Copy of the held summary (empty stays empty) that behaves as a
  /// deep copy; bucket counters are shared copy-on-write, so a clone costs
  /// the bucket structure, not the counters. AnySummary is move-only on
  /// purpose — copies must be spelled out — and Clone is that spelling: it
  /// is what lets generic holders (ShardedDriver's copy-on-publish
  /// snapshots) treat AnySummary like the copyable concrete types.
  AnySummary Clone() const {
    AnySummary out;
    if (impl_) out.impl_ = impl_->Clone();
    return out;
  }

  bool has_value() const { return impl_ != nullptr; }

  /// \brief The held summary's kind; requires has_value().
  SummaryKind kind() const {
    assert(has_value());
    return impl_->kind_;
  }

  void Insert(uint64_t x, uint64_t y) {
    assert(has_value());
    if (impl_) impl_->Insert(x, y);
  }
  void Insert(const Tuple& t) { Insert(t.x, t.y); }
  void InsertBatch(std::span<const Tuple> batch) {
    assert(has_value());
    if (impl_) impl_->InsertBatch(batch);
  }

  /// \brief Weighted insert: for the linear kinds (f2, hh) the weight adds
  /// to x's aggregate exactly like `weight` unit inserts; for the sampling
  /// kinds (f0, rarity) it is a multiplicity — `weight` adjacent copies of
  /// (x, y) — and weight <= 0 is a no-op.
  void Insert(uint64_t x, uint64_t y, int64_t weight) {
    assert(has_value());
    if (impl_) impl_->Insert(x, y, weight);
  }
  void Insert(const WeightedTuple& t) { Insert(t.x, t.y, t.weight); }
  /// \brief Weighted batch; exactly equivalent to per-row weighted Insert in
  /// batch order (this is what the driver's hot-key coalescing emits).
  void InsertBatch(std::span<const WeightedTuple> batch) {
    assert(has_value());
    if (impl_) impl_->InsertBatch(batch);
  }

  /// \brief Merges another AnySummary of the same kind (and, transitively,
  /// the same configuration and hash family — checked by the concrete
  /// MergeFrom) into this one.
  [[nodiscard]] Status MergeFrom(const AnySummary& other) {
    CASTREAM_RETURN_NOT_OK(CheckSameKind(other));
    return impl_->MergeFrom(*other.impl_);
  }

  /// \brief OK exactly when MergeFrom(other) would pass its kind,
  /// configuration and hash-family checks — the same checks, without
  /// building or changing any summary. A reducer runs it at the door to
  /// turn away blobs that could never join its merge tree.
  [[nodiscard]] Status CompatibleWith(const AnySummary& other) const {
    CASTREAM_RETURN_NOT_OK(CheckSameKind(other));
    return impl_->CompatibleWith(*other.impl_);
  }

  /// \brief The kind's scalar point query at cutoff c: the F2 / distinct /
  /// rarity estimate, or — for heavy hitters — the backing F2(c) estimate
  /// (per-item results come from QueryHeavyHitters).
  [[nodiscard]] Result<double> Query(uint64_t c) const {
    if (!impl_) {
      return Status::InvalidArgument("AnySummary::Query: empty handle");
    }
    return impl_->Query(c);
  }

  /// \brief Heavy hitters of {(x, y) : y <= c}; NotSupported for the kinds
  /// without per-item queries (f2, f0, rarity).
  [[nodiscard]] Result<std::vector<HeavyHitter>> QueryHeavyHitters(
      uint64_t c, double phi) const {
    if (!impl_) {
      return Status::InvalidArgument(
          "AnySummary::QueryHeavyHitters: empty handle");
    }
    return impl_->QueryHeavyHitters(c, phi);
  }

  /// \brief Appends the held summary's versioned blob (see src/io/format.h).
  [[nodiscard]] Status Serialize(std::string* out) const {
    if (!impl_) {
      return Status::InvalidArgument("AnySummary::Serialize: empty handle");
    }
    return impl_->Serialize(out);
  }

  /// \brief Decodes a blob of *any* registered kind, dispatching on the
  /// blob's own kind tag through the SummaryRegistry.
  [[nodiscard]] static Result<AnySummary> Deserialize(
      std::span<const std::byte> bytes);

  size_t SizeBytes() const { return impl_ ? impl_->SizeBytes() : 0; }

  /// \brief The concrete summary if this holds a T, nullptr otherwise.
  template <SummaryProtocol T>
  const T* TryAs() const {
    auto* model = dynamic_cast<const Model<T>*>(impl_.get());
    return model ? &model->value_ : nullptr;
  }

 private:
  struct Interface {
    explicit Interface(SummaryKind kind) : kind_(kind) {}
    virtual ~Interface() = default;
    virtual void Insert(uint64_t x, uint64_t y) = 0;
    virtual void Insert(uint64_t x, uint64_t y, int64_t weight) = 0;
    virtual void InsertBatch(std::span<const Tuple> batch) = 0;
    virtual void InsertBatch(std::span<const WeightedTuple> batch) = 0;
    virtual Status MergeFrom(const Interface& other) = 0;
    virtual Status CompatibleWith(const Interface& other) const = 0;
    virtual Result<double> Query(uint64_t c) const = 0;
    virtual Result<std::vector<HeavyHitter>> QueryHeavyHitters(
        uint64_t c, double phi) const = 0;
    virtual Status Serialize(std::string* out) const = 0;
    virtual size_t SizeBytes() const = 0;
    virtual std::unique_ptr<Interface> Clone() const = 0;

    SummaryKind kind_;
  };

  template <SummaryProtocol T>
  struct Model final : Interface {
    Model(SummaryKind kind, T value)
        : Interface(kind), value_(std::move(value)) {}

    void Insert(uint64_t x, uint64_t y) override { value_.Insert(x, y); }
    void Insert(uint64_t x, uint64_t y, int64_t weight) override {
      if constexpr (std::same_as<T, CorrelatedF0Sketch> ||
                    std::same_as<T, CorrelatedRaritySketch>) {
        // Sampling kinds take multiplicities; non-positive weights are no-ops
        // (there is nothing to un-sample).
        if (weight > 0) value_.Insert(x, y, static_cast<uint64_t>(weight));
      } else {
        value_.Insert(x, y, weight);
      }
    }
    void InsertBatch(std::span<const Tuple> batch) override {
      value_.InsertBatch(batch);
    }
    void InsertBatch(std::span<const WeightedTuple> batch) override {
      value_.InsertBatch(batch);
    }
    Status MergeFrom(const Interface& other) override {
      // The caller (AnySummary::MergeFrom) has already matched kinds, and
      // kinds map 1:1 to model types, so the downcast is exact.
      return value_.MergeFrom(static_cast<const Model<T>&>(other).value_);
    }
    Status CompatibleWith(const Interface& other) const override {
      return value_.CompatibleWith(
          static_cast<const Model<T>&>(other).value_);
    }
    Result<double> Query(uint64_t c) const override {
      if constexpr (std::same_as<T, CorrelatedF2HeavyHitters>) {
        return value_.QueryF2(c);
      } else {
        return value_.Query(c);
      }
    }
    Result<std::vector<HeavyHitter>> QueryHeavyHitters(
        uint64_t c, double phi) const override {
      if constexpr (std::same_as<T, CorrelatedF2HeavyHitters>) {
        return value_.Query(c, phi);
      } else if constexpr (requires {
                             {
                               value_.QueryHeavyHitters(c, phi)
                             } -> std::same_as<Result<std::vector<HeavyHitter>>>;
                           }) {
        return value_.QueryHeavyHitters(c, phi);
      } else {
        (void)c;
        (void)phi;
        return Status::NotSupported(
            "heavy-hitter queries need a summary of kind 'hh', 'chh_mg', or "
            "'chh_fast'");
      }
    }
    Status Serialize(std::string* out) const override {
      return value_.Serialize(out);
    }
    size_t SizeBytes() const override { return value_.SizeBytes(); }
    std::unique_ptr<Interface> Clone() const override {
      return std::make_unique<Model<T>>(kind_, value_);
    }

    T value_;
  };

  Status CheckSameKind(const AnySummary& other) const {
    if (!impl_ || !other.impl_) {
      return Status::InvalidArgument("AnySummary: empty summary handle");
    }
    if (impl_->kind_ != other.impl_->kind_) {
      return Status::PreconditionFailed(
          "AnySummary: cannot merge a '" +
          std::string(SummaryKindName(other.impl_->kind_)) + "' into a '" +
          std::string(SummaryKindName(impl_->kind_)) + "'");
    }
    return Status::OK();
  }

  std::unique_ptr<Interface> impl_;
};

/// \brief The registered summary kinds: names, builders, and deserializers.
/// One row per SummaryKind; AnySummary::Deserialize and MakeSummary are
/// table lookups, so adding a fifth summary type is one new row (plus its
/// wire format), not another per-tool switch statement.
class SummaryRegistry {
 public:
  struct Entry {
    SummaryKind kind;
    std::string_view name;
    /// Builders validate their options before constructing anything:
    /// under-range or degenerate configs are a loud InvalidArgument here,
    /// never a silent clamp inside a constructor.
    Result<AnySummary> (*make)(const SummaryOptions& options, uint64_t seed);
    Result<AnySummary> (*deserialize)(std::span<const std::byte> bytes);
  };

  static std::span<const Entry> Entries();
  static const Entry* Find(SummaryKind kind);
  static const Entry* FindByName(std::string_view name);

  /// \brief The registered kind names in registry order ("f2", "f0", ...) —
  /// the single source for usage strings, kind loops, and error messages,
  /// so a fifth summary type shows up everywhere without edits.
  static std::vector<std::string_view> ListKinds();

  /// \brief The kind names joined for human-facing messages, e.g.
  /// "f2, f0, rarity, hh" (ListKinds with the formatting done).
  static std::string KindNamesForDisplay(std::string_view separator = ", ");
};

/// \brief Builds a summary of the given kind from the unified options; the
/// seed fixes the hash families, so summaries made with equal
/// (kind, options, seed) — in any process — are mergeable.
[[nodiscard]] Result<AnySummary> MakeSummary(SummaryKind kind,
                                             const SummaryOptions& options,
                                             uint64_t seed);

/// \brief Name-based convenience overload ("f2", "f0", "rarity", "hh").
[[nodiscard]] Result<AnySummary> MakeSummary(std::string_view kind_name,
                                             const SummaryOptions& options,
                                             uint64_t seed);

}  // namespace castream

#endif  // CASTREAM_CORE_ANY_SUMMARY_H_
