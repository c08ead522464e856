#include "src/core/correlated_chh.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <utility>

#include "src/io/decoder.h"
#include "src/io/encoder.h"

namespace castream {
namespace {

constexpr uint32_t kMinCapacity = 4;
constexpr uint32_t kMaxCapacity = uint32_t{1} << 20;

// ceil(2 / eps) computed in double so an adversarially tiny eps cannot
// overflow the cast; out-of-range results collapse to UINT32_MAX, which the
// [kMinCapacity, kMaxCapacity] check in Validate rejects.
uint32_t DerivedCapacity(double eps) {
  const double c = std::ceil(2.0 / eps);
  if (!(c >= 0.0) || c > static_cast<double>(kMaxCapacity)) return UINT32_MAX;
  return static_cast<uint32_t>(c);
}

Status CapacityRangeError(const char* stage, uint64_t capacity) {
  return Status::InvalidArgument(
      std::string("chh options: ") + stage + " table capacity " +
      std::to_string(capacity) + " out of range [" +
      std::to_string(kMinCapacity) + ", " + std::to_string(kMaxCapacity) +
      "]");
}

// The (capacity + 1)-th largest counter value; the mergeable-summaries
// reduction subtracts it from every counter and drops the non-positive
// survivors, leaving at most `capacity` entries (only counters strictly
// above the threshold survive). Requires more than `capacity` counters.
uint64_t ShrinkThreshold(std::vector<uint64_t>& counts, uint32_t capacity) {
  assert(counts.size() > capacity);
  std::nth_element(counts.begin(), counts.begin() + capacity, counts.end(),
                   std::greater<uint64_t>());
  return counts[capacity];
}

}  // namespace

uint32_t CorrelatedChhOptions::XCapacity() const {
  return x_capacity_override != 0 ? x_capacity_override
                                  : DerivedCapacity(phi_eps);
}

uint32_t CorrelatedChhOptions::YCapacity() const {
  return y_capacity_override != 0 ? y_capacity_override
                                  : DerivedCapacity(y_eps);
}

Status CorrelatedChhOptions::Validate() const {
  if (x_capacity_override == 0 && !(phi_eps > 0.0 && phi_eps <= 1.0)) {
    return Status::InvalidArgument("chh options: phi_eps must be in (0, 1]");
  }
  if (y_capacity_override == 0 && !(y_eps > 0.0 && y_eps <= 1.0)) {
    return Status::InvalidArgument("chh options: y_eps must be in (0, 1]");
  }
  const uint32_t k1 = XCapacity();
  if (k1 < kMinCapacity || k1 > kMaxCapacity) {
    return CapacityRangeError("primary", k1);
  }
  const uint32_t k2 = YCapacity();
  if (k2 < kMinCapacity || k2 > kMaxCapacity) {
    return CapacityRangeError("y-stage", k2);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// CorrelatedNestedMisraGries
// ---------------------------------------------------------------------------

CorrelatedNestedMisraGries::CorrelatedNestedMisraGries(
    const CorrelatedChhOptions& options)
    : options_(options) {
  assert(options.Validate().ok());
}

void CorrelatedNestedMisraGries::NestedInsert(Entry& e, uint64_t y,
                                              uint64_t w) {
  auto it = e.nested.find(y);
  if (it != e.nested.end()) {
    it->second += w;
    return;
  }
  if (e.nested.size() < options_.YCapacity()) {
    e.nested.emplace(y, w);
    return;
  }
  // Weighted Misra-Gries decrement round: take d = min(w, smallest stored
  // counter) off every counter (dropping the zeros, of which there is at
  // least one when w > d) and store the remainder of w, if any, for y. The
  // round removes d * size stored mass and absorbs d of y's mass, so the
  // entry's tracked nested loss grows by d * (size + 1).
  uint64_t min_count = UINT64_MAX;
  for (const auto& [stored_y, count] : e.nested) {
    min_count = std::min(min_count, count);
  }
  const uint64_t d = std::min(w, min_count);
  e.nested_loss += d * (e.nested.size() + 1);
  for (auto i = e.nested.begin(); i != e.nested.end();) {
    i->second -= d;
    i = (i->second == 0) ? e.nested.erase(i) : std::next(i);
  }
  if (w > d) e.nested.emplace(y, w - d);
}

void CorrelatedNestedMisraGries::Insert(uint64_t x, uint64_t y,
                                        int64_t weight) {
  if (weight <= 0) return;
  const uint64_t w = static_cast<uint64_t>(weight);
  total_weight_ += w;
  auto it = table_.find(x);
  if (it != table_.end()) {
    it->second.count += w;
    NestedInsert(it->second, y, w);
    return;
  }
  if (table_.size() < options_.XCapacity()) {
    Entry e;
    e.count = w;
    e.nested.emplace(y, w);
    table_.emplace(x, std::move(e));
    return;
  }
  uint64_t min_count = UINT64_MAX;
  for (const auto& [stored_x, e] : table_) {
    min_count = std::min(min_count, e.count);
  }
  const uint64_t d = std::min(w, min_count);
  primary_decrements_ += d;
  for (auto i = table_.begin(); i != table_.end();) {
    i->second.count -= d;
    i = (i->second.count == 0) ? table_.erase(i) : std::next(i);
  }
  if (w > d) {
    Entry e;
    e.count = w - d;
    e.nested.emplace(y, w - d);
    table_.emplace(x, std::move(e));
  }
}

void CorrelatedNestedMisraGries::InsertBatch(std::span<const Tuple> batch) {
  for (const Tuple& t : batch) Insert(t.x, t.y, 1);
}

void CorrelatedNestedMisraGries::InsertBatch(
    std::span<const WeightedTuple> batch) {
  for (const WeightedTuple& t : batch) Insert(t.x, t.y, t.weight);
}

void CorrelatedNestedMisraGries::ShrinkNested(Entry& e) {
  if (e.nested.size() <= options_.YCapacity()) return;
  std::vector<uint64_t> counts;
  counts.reserve(e.nested.size());
  for (const auto& [y, count] : e.nested) counts.push_back(count);
  const uint64_t t = ShrinkThreshold(counts, options_.YCapacity());
  uint64_t removed = 0;
  for (auto i = e.nested.begin(); i != e.nested.end();) {
    if (i->second <= t) {
      removed += i->second;
      i = e.nested.erase(i);
    } else {
      removed += t;
      i->second -= t;
      ++i;
    }
  }
  e.nested_loss += removed;
}

void CorrelatedNestedMisraGries::ShrinkPrimary() {
  if (table_.size() <= options_.XCapacity()) return;
  std::vector<uint64_t> counts;
  counts.reserve(table_.size());
  for (const auto& [x, e] : table_) counts.push_back(e.count);
  const uint64_t t = ShrinkThreshold(counts, options_.XCapacity());
  primary_decrements_ += t;
  for (auto i = table_.begin(); i != table_.end();) {
    if (i->second.count <= t) {
      i = table_.erase(i);
    } else {
      i->second.count -= t;
      ++i;
    }
  }
}

Status CorrelatedNestedMisraGries::CompatibleWith(
    const CorrelatedNestedMisraGries& other) const {
  if (options_.XCapacity() != other.options_.XCapacity() ||
      options_.YCapacity() != other.options_.YCapacity()) {
    return Status::PreconditionFailed(
        "CorrelatedNestedMisraGries::MergeFrom: table configurations differ "
        "(the summaries were built with different capacities)");
  }
  return Status::OK();
}

Status CorrelatedNestedMisraGries::MergeFrom(
    const CorrelatedNestedMisraGries& other) {
  if (&other == this) {
    return Status::InvalidArgument(
        "CorrelatedNestedMisraGries::MergeFrom: cannot merge a summary into "
        "itself");
  }
  CASTREAM_RETURN_NOT_OK(CompatibleWith(other));
  total_weight_ += other.total_weight_;
  primary_decrements_ += other.primary_decrements_;
  for (const auto& [x, oe] : other.table_) {
    auto [it, inserted] = table_.try_emplace(x, oe);
    if (!inserted) {
      it->second.count += oe.count;
      it->second.nested_loss += oe.nested_loss;
      for (const auto& [y, count] : oe.nested) it->second.nested[y] += count;
      ShrinkNested(it->second);
    }
  }
  ShrinkPrimary();
  return Status::OK();
}

uint64_t CorrelatedNestedMisraGries::FoldBelow(const Entry& e,
                                               uint64_t c) const {
  uint64_t folded = 0;
  const auto end = (c == UINT64_MAX) ? e.nested.end() : e.nested.upper_bound(c);
  for (auto i = e.nested.begin(); i != end; ++i) folded += i->second;
  return folded;
}

Result<double> CorrelatedNestedMisraGries::Query(uint64_t c) const {
  double total = 0.0;
  for (const auto& [x, e] : table_) {
    total += static_cast<double>(FoldBelow(e, c));
  }
  return total;
}

Result<std::vector<HeavyHitter>> CorrelatedNestedMisraGries::QueryHeavyHitters(
    uint64_t c, double phi) const {
  if (!(phi > 0.0) || phi > 1.0) {
    return Status::InvalidArgument("phi must be in (0, 1]");
  }
  std::vector<HeavyHitter> out;
  if (total_weight_ == 0) return out;
  const double n = static_cast<double>(total_weight_);
  const double threshold = phi * n;
  for (const auto& [x, e] : table_) {
    const uint64_t folded = FoldBelow(e, c);
    // Certain undercount slack: up to primary_decrements_ of x's mass was
    // never routed into this entry, and up to nested_loss of the routed
    // below-cutoff mass was lost to nested decrement rounds. An entry whose
    // nested table a decrement round or a merge emptied (folded == 0) can
    // still be heavy on its slack alone, so it is judged like any other.
    const double slack =
        static_cast<double>(primary_decrements_) +
        static_cast<double>(e.nested_loss);
    const double estimate = static_cast<double>(folded);
    if (estimate + slack < threshold) continue;
    out.push_back(HeavyHitter{x, estimate, estimate / n});
  }
  std::sort(out.begin(), out.end(),
            [](const HeavyHitter& a, const HeavyHitter& b) {
              if (a.estimated_f2_share != b.estimated_f2_share) {
                return a.estimated_f2_share > b.estimated_f2_share;
              }
              return a.item < b.item;
            });
  return out;
}

size_t CorrelatedNestedMisraGries::SizeBytes() const {
  constexpr size_t kNodeOverhead = 4 * sizeof(void*);
  size_t bytes = sizeof(*this);
  for (const auto& [x, e] : table_) {
    bytes += kNodeOverhead + sizeof(x) + sizeof(Entry) +
             e.nested.size() * (kNodeOverhead + 2 * sizeof(uint64_t));
  }
  return bytes;
}

Status CorrelatedNestedMisraGries::Serialize(std::string* out) const {
  io::Encoder enc(out);
  const size_t patch =
      io::BeginEnvelope(enc, SummaryKind::kCorrelatedNestedMisraGries,
                        io::kCorrelatedNestedMisraGriesVersion);
  enc.PutU32(options_.XCapacity());
  enc.PutU32(options_.YCapacity());
  enc.PutU64(total_weight_);
  enc.PutU64(primary_decrements_);
  enc.PutU32(static_cast<uint32_t>(table_.size()));
  for (const auto& [x, e] : table_) {  // std::map: ascending by x
    enc.PutU64(x);
    enc.PutU64(e.count);
    enc.PutU64(e.nested_loss);
    enc.PutU32(static_cast<uint32_t>(e.nested.size()));
    for (const auto& [y, count] : e.nested) {  // ascending by y
      enc.PutU64(y);
      enc.PutU64(count);
    }
  }
  io::EndEnvelope(enc, patch);
  return Status::OK();
}

Result<CorrelatedNestedMisraGries> CorrelatedNestedMisraGries::Deserialize(
    std::span<const std::byte> bytes) {
  io::Decoder dec(bytes);
  CASTREAM_RETURN_NOT_OK(
      io::ReadEnvelope(dec, SummaryKind::kCorrelatedNestedMisraGries,
                       io::kCorrelatedNestedMisraGriesVersion));
  uint32_t k1 = 0;
  uint32_t k2 = 0;
  CASTREAM_RETURN_NOT_OK(dec.ReadU32(&k1));
  CASTREAM_RETURN_NOT_OK(dec.ReadU32(&k2));
  if (k1 < kMinCapacity || k1 > kMaxCapacity || k2 < kMinCapacity ||
      k2 > kMaxCapacity) {
    return Status::InvalidArgument("decode: chh table capacity out of range");
  }
  CorrelatedChhOptions opts;
  opts.x_capacity_override = k1;
  opts.y_capacity_override = k2;
  CorrelatedNestedMisraGries s(opts);
  CASTREAM_RETURN_NOT_OK(dec.ReadU64(&s.total_weight_));
  CASTREAM_RETURN_NOT_OK(dec.ReadU64(&s.primary_decrements_));
  // Every unit of decrement provably consumes k1 + 1 units of stream
  // weight, so a larger claim cannot come from a real summary (and would
  // inflate the reported error slack).
  if (s.primary_decrements_ > s.total_weight_ / (k1 + 1)) {
    return Status::InvalidArgument(
        "decode: decrement total exceeds the Misra-Gries bound");
  }
  uint32_t entries = 0;
  CASTREAM_RETURN_NOT_OK(dec.ReadCount(&entries, 28));
  if (entries > k1) {
    return Status::InvalidArgument(
        "decode: primary entry count exceeds the table capacity");
  }
  uint64_t prev_x = 0;
  uint64_t stored_mass = 0;
  for (uint32_t i = 0; i < entries; ++i) {
    uint64_t x = 0;
    CASTREAM_RETURN_NOT_OK(dec.ReadU64(&x));
    if (i > 0 && x <= prev_x) {
      return Status::InvalidArgument(
          "decode: primary entries not strictly ascending");
    }
    prev_x = x;
    Entry e;
    CASTREAM_RETURN_NOT_OK(dec.ReadU64(&e.count));
    if (e.count == 0) {
      return Status::InvalidArgument("decode: zero primary counter");
    }
    if (e.count > s.total_weight_ - stored_mass) {
      return Status::InvalidArgument(
          "decode: stored counter mass exceeds the declared stream weight");
    }
    stored_mass += e.count;
    CASTREAM_RETURN_NOT_OK(dec.ReadU64(&e.nested_loss));
    if (e.nested_loss > s.total_weight_) {
      return Status::InvalidArgument(
          "decode: nested loss exceeds the declared stream weight");
    }
    uint32_t nested = 0;
    CASTREAM_RETURN_NOT_OK(dec.ReadCount(&nested, 16));
    if (nested > k2) {
      return Status::InvalidArgument(
          "decode: nested entry count exceeds the table capacity");
    }
    uint64_t prev_y = 0;
    uint64_t nested_mass = 0;
    for (uint32_t j = 0; j < nested; ++j) {
      uint64_t y = 0;
      uint64_t count = 0;
      CASTREAM_RETURN_NOT_OK(dec.ReadU64(&y));
      if (j > 0 && y <= prev_y) {
        return Status::InvalidArgument(
            "decode: nested entries not strictly ascending");
      }
      prev_y = y;
      CASTREAM_RETURN_NOT_OK(dec.ReadU64(&count));
      if (count == 0) {
        return Status::InvalidArgument("decode: zero nested counter");
      }
      if (count > s.total_weight_ - nested_mass) {
        return Status::InvalidArgument(
            "decode: nested counter mass exceeds the declared stream weight");
      }
      nested_mass += count;
      e.nested.emplace_hint(e.nested.end(), y, count);
    }
    s.table_.emplace_hint(s.table_.end(), x, std::move(e));
  }
  if (!dec.Done()) {
    return Status::InvalidArgument(
        "deserialize: unread bytes after the summary body");
  }
  return s;
}

// ---------------------------------------------------------------------------
// CorrelatedFastChh
// ---------------------------------------------------------------------------

CorrelatedFastChh::CorrelatedFastChh(const CorrelatedChhOptions& options)
    : options_(options) {
  assert(options.Validate().ok());
}

void CorrelatedFastChh::StageInsert(Entry& e, uint64_t y, uint64_t w) {
  auto it = e.stage.find(y);
  if (it != e.stage.end()) {
    it->second.count += w;
    return;
  }
  if (e.stage.size() < options_.YCapacity()) {
    e.stage.emplace(y, Slot{w, 0});
    return;
  }
  // Space-Saving replacement: evict the lightest slot (smallest y on ties,
  // deterministically) and let y inherit its count as tracked error.
  auto victim = e.stage.begin();
  for (auto i = std::next(e.stage.begin()); i != e.stage.end(); ++i) {
    if (i->second.count < victim->second.count) victim = i;
  }
  const uint64_t base = victim->second.count;
  e.stage.erase(victim);
  e.stage.emplace(y, Slot{base + w, base});
}

void CorrelatedFastChh::Insert(uint64_t x, uint64_t y, int64_t weight) {
  if (weight <= 0) return;
  const uint64_t w = static_cast<uint64_t>(weight);
  total_weight_ += w;
  auto it = table_.find(x);
  if (it != table_.end()) {
    it->second.count += w;
    StageInsert(it->second, y, w);
    return;
  }
  if (table_.size() < options_.XCapacity()) {
    Entry e;
    e.count = w;
    e.stage.emplace(y, Slot{w, 0});
    table_.emplace(x, std::move(e));
    return;
  }
  uint64_t min_count = UINT64_MAX;
  for (const auto& [stored_x, e] : table_) {
    min_count = std::min(min_count, e.count);
  }
  const uint64_t d = std::min(w, min_count);
  primary_decrements_ += d;
  for (auto i = table_.begin(); i != table_.end();) {
    i->second.count -= d;
    i = (i->second.count == 0) ? table_.erase(i) : std::next(i);
  }
  if (w > d) {
    Entry e;
    e.count = w - d;
    e.stage.emplace(y, Slot{w - d, 0});
    table_.emplace(x, std::move(e));
  }
}

void CorrelatedFastChh::InsertBatch(std::span<const Tuple> batch) {
  for (const Tuple& t : batch) Insert(t.x, t.y, 1);
}

void CorrelatedFastChh::InsertBatch(std::span<const WeightedTuple> batch) {
  for (const WeightedTuple& t : batch) Insert(t.x, t.y, t.weight);
}

void CorrelatedFastChh::MergeStage(Entry& into, const Entry& from) {
  const uint32_t k2 = options_.YCapacity();
  // Parallel Space-Saving merge (the 1611.04942 authors' rule): a key
  // missing from one side may have occurred up to that side's minimum
  // count times (zero if the side never evicted, i.e. is not full), so
  // one-sided slots absorb the other side's minimum as count and error;
  // shared slots add component-wise. Then only the heaviest k2 survive.
  const auto full_min = [k2](const Entry& e) -> uint64_t {
    if (e.stage.size() < k2) return 0;
    uint64_t m = UINT64_MAX;
    for (const auto& [y, slot] : e.stage) m = std::min(m, slot.count);
    return m;
  };
  const uint64_t min_into = full_min(into);
  const uint64_t min_from = full_min(from);
  for (auto& [y, slot] : into.stage) {
    if (from.stage.find(y) == from.stage.end()) {
      slot.count += min_from;
      slot.error += min_from;
    }
  }
  for (const auto& [y, slot] : from.stage) {
    auto it = into.stage.find(y);
    if (it != into.stage.end()) {
      it->second.count += slot.count;
      it->second.error += slot.error;
    } else {
      into.stage.emplace(y, Slot{slot.count + min_into, slot.error + min_into});
    }
  }
  if (into.stage.size() <= k2) return;
  std::vector<std::pair<uint64_t, uint64_t>> order;  // (count, y)
  order.reserve(into.stage.size());
  for (const auto& [y, slot] : into.stage) order.emplace_back(slot.count, y);
  std::sort(order.begin(), order.end(),
            [](const std::pair<uint64_t, uint64_t>& a,
               const std::pair<uint64_t, uint64_t>& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  order.resize(k2);
  std::vector<uint64_t> keep;
  keep.reserve(k2);
  for (const auto& [count, y] : order) keep.push_back(y);
  std::sort(keep.begin(), keep.end());
  for (auto i = into.stage.begin(); i != into.stage.end();) {
    if (std::binary_search(keep.begin(), keep.end(), i->first)) {
      ++i;
    } else {
      i = into.stage.erase(i);
    }
  }
}

void CorrelatedFastChh::ShrinkPrimary() {
  if (table_.size() <= options_.XCapacity()) return;
  std::vector<uint64_t> counts;
  counts.reserve(table_.size());
  for (const auto& [x, e] : table_) counts.push_back(e.count);
  const uint64_t t = ShrinkThreshold(counts, options_.XCapacity());
  primary_decrements_ += t;
  for (auto i = table_.begin(); i != table_.end();) {
    if (i->second.count <= t) {
      i = table_.erase(i);
    } else {
      i->second.count -= t;
      ++i;
    }
  }
}

Status CorrelatedFastChh::CompatibleWith(
    const CorrelatedFastChh& other) const {
  if (options_.XCapacity() != other.options_.XCapacity() ||
      options_.YCapacity() != other.options_.YCapacity()) {
    return Status::PreconditionFailed(
        "CorrelatedFastChh::MergeFrom: table configurations differ (the "
        "summaries were built with different capacities)");
  }
  return Status::OK();
}

Status CorrelatedFastChh::MergeFrom(const CorrelatedFastChh& other) {
  if (&other == this) {
    return Status::InvalidArgument(
        "CorrelatedFastChh::MergeFrom: cannot merge a summary into itself");
  }
  CASTREAM_RETURN_NOT_OK(CompatibleWith(other));
  total_weight_ += other.total_weight_;
  primary_decrements_ += other.primary_decrements_;
  for (const auto& [x, oe] : other.table_) {
    auto [it, inserted] = table_.try_emplace(x, oe);
    if (!inserted) {
      it->second.count += oe.count;
      MergeStage(it->second, oe);
    }
  }
  ShrinkPrimary();
  return Status::OK();
}

Result<double> CorrelatedFastChh::Query(uint64_t c) const {
  double total = 0.0;
  for (const auto& [x, e] : table_) {
    const auto end =
        (c == UINT64_MAX) ? e.stage.end() : e.stage.upper_bound(c);
    for (auto i = e.stage.begin(); i != end; ++i) {
      total += static_cast<double>(i->second.count - i->second.error);
    }
  }
  return total;
}

Result<std::vector<HeavyHitter>> CorrelatedFastChh::QueryHeavyHitters(
    uint64_t c, double phi) const {
  if (!(phi > 0.0) || phi > 1.0) {
    return Status::InvalidArgument("phi must be in (0, 1]");
  }
  std::vector<HeavyHitter> out;
  if (total_weight_ == 0) return out;
  const double n = static_cast<double>(total_weight_);
  const double threshold = phi * n;
  for (const auto& [x, e] : table_) {
    uint64_t below_count = 0;
    uint64_t above_error = 0;
    for (const auto& [y, slot] : e.stage) {
      if (y <= c) {
        below_count += slot.count;
      } else {
        above_error += slot.error;
      }
    }
    // Certain upper bound on f_x(c): the below-cutoff counts already
    // over-cover their keys; mass of below-cutoff keys hiding inside
    // above-cutoff slots is bounded by those slots' inherited error; and
    // up to primary_decrements_ of x's mass never reached this stage. An
    // entry with no slot at or below c can still be heavy on that error
    // alone, so it is judged like any other.
    const double upper = static_cast<double>(below_count) +
                         static_cast<double>(above_error) +
                         static_cast<double>(primary_decrements_);
    if (upper < threshold) continue;
    const double estimate = static_cast<double>(below_count);
    out.push_back(HeavyHitter{x, estimate, estimate / n});
  }
  std::sort(out.begin(), out.end(),
            [](const HeavyHitter& a, const HeavyHitter& b) {
              if (a.estimated_f2_share != b.estimated_f2_share) {
                return a.estimated_f2_share > b.estimated_f2_share;
              }
              return a.item < b.item;
            });
  return out;
}

size_t CorrelatedFastChh::SizeBytes() const {
  constexpr size_t kNodeOverhead = 4 * sizeof(void*);
  size_t bytes = sizeof(*this);
  for (const auto& [x, e] : table_) {
    bytes += kNodeOverhead + sizeof(x) + sizeof(Entry) +
             e.stage.size() * (kNodeOverhead + sizeof(uint64_t) + sizeof(Slot));
  }
  return bytes;
}

Status CorrelatedFastChh::Serialize(std::string* out) const {
  io::Encoder enc(out);
  const size_t patch = io::BeginEnvelope(enc, SummaryKind::kCorrelatedFastChh,
                                         io::kCorrelatedFastChhVersion);
  enc.PutU32(options_.XCapacity());
  enc.PutU32(options_.YCapacity());
  enc.PutU64(total_weight_);
  enc.PutU64(primary_decrements_);
  enc.PutU32(static_cast<uint32_t>(table_.size()));
  for (const auto& [x, e] : table_) {  // ascending by x
    enc.PutU64(x);
    enc.PutU64(e.count);
    enc.PutU32(static_cast<uint32_t>(e.stage.size()));
    for (const auto& [y, slot] : e.stage) {  // ascending by y
      enc.PutU64(y);
      enc.PutU64(slot.count);
      enc.PutU64(slot.error);
    }
  }
  io::EndEnvelope(enc, patch);
  return Status::OK();
}

Result<CorrelatedFastChh> CorrelatedFastChh::Deserialize(
    std::span<const std::byte> bytes) {
  io::Decoder dec(bytes);
  CASTREAM_RETURN_NOT_OK(io::ReadEnvelope(dec, SummaryKind::kCorrelatedFastChh,
                                          io::kCorrelatedFastChhVersion));
  uint32_t k1 = 0;
  uint32_t k2 = 0;
  CASTREAM_RETURN_NOT_OK(dec.ReadU32(&k1));
  CASTREAM_RETURN_NOT_OK(dec.ReadU32(&k2));
  if (k1 < kMinCapacity || k1 > kMaxCapacity || k2 < kMinCapacity ||
      k2 > kMaxCapacity) {
    return Status::InvalidArgument("decode: chh table capacity out of range");
  }
  CorrelatedChhOptions opts;
  opts.x_capacity_override = k1;
  opts.y_capacity_override = k2;
  CorrelatedFastChh s(opts);
  CASTREAM_RETURN_NOT_OK(dec.ReadU64(&s.total_weight_));
  CASTREAM_RETURN_NOT_OK(dec.ReadU64(&s.primary_decrements_));
  if (s.primary_decrements_ > s.total_weight_ / (k1 + 1)) {
    return Status::InvalidArgument(
        "decode: decrement total exceeds the Misra-Gries bound");
  }
  uint32_t entries = 0;
  CASTREAM_RETURN_NOT_OK(dec.ReadCount(&entries, 20));
  if (entries > k1) {
    return Status::InvalidArgument(
        "decode: primary entry count exceeds the table capacity");
  }
  uint64_t prev_x = 0;
  uint64_t stored_mass = 0;
  for (uint32_t i = 0; i < entries; ++i) {
    uint64_t x = 0;
    CASTREAM_RETURN_NOT_OK(dec.ReadU64(&x));
    if (i > 0 && x <= prev_x) {
      return Status::InvalidArgument(
          "decode: primary entries not strictly ascending");
    }
    prev_x = x;
    Entry e;
    CASTREAM_RETURN_NOT_OK(dec.ReadU64(&e.count));
    if (e.count == 0) {
      return Status::InvalidArgument("decode: zero primary counter");
    }
    if (e.count > s.total_weight_ - stored_mass) {
      return Status::InvalidArgument(
          "decode: stored counter mass exceeds the declared stream weight");
    }
    stored_mass += e.count;
    uint32_t slots = 0;
    CASTREAM_RETURN_NOT_OK(dec.ReadCount(&slots, 24));
    if (slots == 0 || slots > k2) {
      return Status::InvalidArgument(
          "decode: y-stage slot count out of range (a live entry always "
          "keeps at least one slot)");
    }
    uint64_t prev_y = 0;
    for (uint32_t j = 0; j < slots; ++j) {
      uint64_t y = 0;
      Slot slot;
      CASTREAM_RETURN_NOT_OK(dec.ReadU64(&y));
      if (j > 0 && y <= prev_y) {
        return Status::InvalidArgument(
            "decode: y-stage slots not strictly ascending");
      }
      prev_y = y;
      CASTREAM_RETURN_NOT_OK(dec.ReadU64(&slot.count));
      CASTREAM_RETURN_NOT_OK(dec.ReadU64(&slot.error));
      // Space-Saving invariant: a slot's inherited error stays strictly
      // below its count (a key is always admitted with weight >= 1 on top
      // of the inherited base), so error >= count proves corruption.
      if (slot.count == 0 || slot.error >= slot.count) {
        return Status::InvalidArgument(
            "decode: y-stage slot error not below its count");
      }
      if (slot.count > s.total_weight_) {
        return Status::InvalidArgument(
            "decode: y-stage counter exceeds the declared stream weight");
      }
      e.stage.emplace_hint(e.stage.end(), y, slot);
    }
    s.table_.emplace_hint(s.table_.end(), x, std::move(e));
  }
  if (!dec.Done()) {
    return Status::InvalidArgument(
        "deserialize: unread bytes after the summary body");
  }
  return s;
}

}  // namespace castream
