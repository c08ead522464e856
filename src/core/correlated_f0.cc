#include "src/core/correlated_f0.h"

#include <algorithm>
#include <cmath>

#include "src/common/bit_util.h"
#include "src/common/math_util.h"
#include "src/common/random.h"
#include "src/hash/hash_family.h"

namespace castream {

uint32_t CorrelatedF0Options::Levels() const {
  // Levels 0 .. log2(m): level l samples at rate 2^-l, and rates below 1/m
  // would leave deeper levels empty in expectation.
  return std::min<uint32_t>(40, CeilLog2(x_domain + 1) + 1);
}

uint32_t CorrelatedF0Options::Alpha() const {
  if (alpha_override != 0) return alpha_override;
  const double a = std::ceil(kappa / (eps * eps));
  return static_cast<uint32_t>(std::max(16.0, std::min(a, 1e7)));
}

uint32_t CorrelatedF0Options::Repetitions() const {
  if (repetitions_override != 0) return repetitions_override;
  // Median of r independent estimators drives the per-query failure
  // probability down exponentially in r; r = 1 at delta >= 1/4, growing
  // logarithmically. Kept odd so the median is a single estimator's output.
  const double r = std::ceil(std::log2(1.0 / std::max(1e-12, delta)));
  uint32_t reps = static_cast<uint32_t>(std::clamp(r, 1.0, 15.0));
  return reps | 1u;  // round up to odd
}

CorrelatedF0Sketch::CorrelatedF0Sketch(const CorrelatedF0Options& options,
                                       uint64_t seed,
                                       bool track_second_occurrence)
    : options_(options), track_second_(track_second_occurrence),
      alpha_(options.Alpha()) {
  SplitMix64 seeder(seed);
  const uint32_t reps = options_.Repetitions();
  instances_.resize(reps);
  for (Instance& inst : instances_) {
    inst.hash_seed = seeder.Next();
    inst.levels.resize(options_.Levels());
  }
}

void CorrelatedF0Sketch::Insert(uint64_t x, uint64_t y) {
  for (Instance& inst : instances_) InsertInto(inst, x, y, /*multiple=*/false);
}

void CorrelatedF0Sketch::Insert(uint64_t x, uint64_t y, uint64_t count) {
  if (count == 0) return;
  const bool multiple = count > 1;
  for (Instance& inst : instances_) InsertInto(inst, x, y, multiple);
}

void CorrelatedF0Sketch::InsertBatch(std::span<const Tuple> batch) {
  // Instance-major: each repetition's state depends only on its own inserts,
  // so running the whole batch through one instance at a time is exactly
  // equivalent to interleaved insertion while touching one instance's hash
  // tables at a time.
  for (Instance& inst : instances_) {
    for (const Tuple& t : batch) InsertInto(inst, t.x, t.y, /*multiple=*/false);
  }
}

void CorrelatedF0Sketch::InsertBatch(std::span<const WeightedTuple> batch) {
  for (Instance& inst : instances_) {
    for (const WeightedTuple& t : batch) {
      if (t.weight <= 0) continue;
      InsertInto(inst, t.x, t.y, /*multiple=*/t.weight > 1);
    }
  }
}

void CorrelatedF0Sketch::InsertInto(Instance& inst, uint64_t x, uint64_t y,
                                    bool multiple) {
  // Item x participates in levels 0 .. HashLevel(h(x)): level l is a
  // 2^-l-rate sample of the identifier universe.
  const uint64_t h = MixHash64(x, inst.hash_seed);
  const uint32_t max_level = std::min<uint32_t>(
      static_cast<uint32_t>(HashLevel(h)),
      static_cast<uint32_t>(inst.levels.size()) - 1);

  for (uint32_t l = 0; l <= max_level; ++l) {
    Level& level = inst.levels[l];
    auto it = level.by_x.find(x);
    if (it != level.by_x.end()) {
      // Known identifier: maintain the two smallest occurrence values.
      Entry& e = it->second;
      if (y < e.y_min) {
        level.by_y.erase({e.y_min, x});
        level.by_y.emplace(std::make_pair(y, x), x);
        // With >= 2 adjacent copies of (x, y), the second copy would
        // immediately lower the second-occurrence value to y as well.
        if (track_second_) e.y_second = multiple ? y : e.y_min;
        e.y_min = y;
      } else if (track_second_ && y < e.y_second) {
        e.y_second = y;
      }
      continue;
    }

    // New identifier at this level. A coalesced multiplicity >= 2 seeds the
    // second-occurrence value too, exactly as adjacent repeats would.
    const uint64_t second = track_second_ && multiple ? y : UINT64_MAX;
    if (level.by_x.size() < alpha_) {
      level.by_x.emplace(x, Entry{y, second});
      level.by_y.emplace(std::make_pair(y, x), x);
      continue;
    }
    // Budget full: keep the alpha smallest y_min values. Either the new
    // arrival or the current maximum is given up, and Y_l records the
    // smallest y ever given up.
    auto max_it = std::prev(level.by_y.end());
    if (y >= max_it->first.first) {
      level.y_threshold = std::min(level.y_threshold, y);
      continue;
    }
    const uint64_t evicted_x = max_it->second;
    level.y_threshold = std::min(level.y_threshold, max_it->first.first);
    level.by_x.erase(evicted_x);
    level.by_y.erase(max_it);
    level.by_x.emplace(x, Entry{y, second});
    level.by_y.emplace(std::make_pair(y, x), x);
  }
}

Status CorrelatedF0Sketch::CompatibleWith(
    const CorrelatedF0Sketch& other) const {
  if (track_second_ != other.track_second_ || alpha_ != other.alpha_ ||
      instances_.size() != other.instances_.size() ||
      options_.Levels() != other.options_.Levels()) {
    return Status::PreconditionFailed(
        "CorrelatedF0Sketch::MergeFrom: incompatible configuration "
        "(budget / repetitions / levels / rarity tracking differ)");
  }
  for (size_t i = 0; i < instances_.size(); ++i) {
    // Same seed => same level assignment per x; without it the two sides'
    // samples are drawn from unrelated hash families and cannot be combined.
    if (instances_[i].hash_seed != other.instances_[i].hash_seed) {
      return Status::PreconditionFailed(
          "CorrelatedF0Sketch::MergeFrom: summaries use different hash "
          "seeds (build both from the same seed)");
    }
  }
  return Status::OK();
}

Status CorrelatedF0Sketch::MergeFrom(const CorrelatedF0Sketch& other) {
  if (this == &other) {
    return Status::InvalidArgument(
        "CorrelatedF0Sketch::MergeFrom: cannot merge a summary into itself");
  }
  CASTREAM_RETURN_NOT_OK(CompatibleWith(other));
  for (size_t i = 0; i < instances_.size(); ++i) {
    Instance& dst = instances_[i];
    const Instance& src = other.instances_[i];
    for (size_t l = 0; l < dst.levels.size(); ++l) {
      MergeLevelFrom(dst.levels[l], src.levels[l]);
    }
  }
  return Status::OK();
}

void CorrelatedF0Sketch::MergeLevelFrom(Level& dst, const Level& src) {
  // A value given up on either side was given up on the union.
  dst.y_threshold = std::min(dst.y_threshold, src.y_threshold);
  for (const auto& [x, e] : src.by_x) {
    auto it = dst.by_x.find(x);
    if (it != dst.by_x.end()) {
      // Shared identifier: the union's two smallest occurrence values are
      // among the two smallest of each side (each side saw a sub-multiset).
      Entry& d = it->second;
      const uint64_t old_min = d.y_min;
      uint64_t lo = std::min(d.y_min, e.y_min);
      uint64_t hi = std::max(d.y_min, e.y_min);
      if (track_second_) {
        hi = std::min({hi, d.y_second, e.y_second});
        d.y_second = hi;
      }
      d.y_min = lo;
      if (d.y_min != old_min) {
        dst.by_y.erase({old_min, x});
        dst.by_y.emplace(std::make_pair(d.y_min, x), x);
      }
      continue;
    }
    // New identifier: the same admit-or-evict policy as InsertInto, applied
    // to the entry's minimum (its second value rides along).
    if (dst.by_x.size() < alpha_) {
      dst.by_x.emplace(x, e);
      dst.by_y.emplace(std::make_pair(e.y_min, x), x);
      continue;
    }
    auto max_it = std::prev(dst.by_y.end());
    if (e.y_min >= max_it->first.first) {
      dst.y_threshold = std::min(dst.y_threshold, e.y_min);
      continue;
    }
    const uint64_t evicted_x = max_it->second;
    dst.y_threshold = std::min(dst.y_threshold, max_it->first.first);
    dst.by_x.erase(evicted_x);
    dst.by_y.erase(max_it);
    dst.by_x.emplace(x, e);
    dst.by_y.emplace(std::make_pair(e.y_min, x), x);
  }
}

Result<double> CorrelatedF0Sketch::QueryInstance(const Instance& inst,
                                                 uint64_t c,
                                                 bool rarity) const {
  // Smallest complete level: Y_l > c means no entry relevant to [0, c] was
  // given up, so the level is an unbiased 2^-l sample of {x : min_y(x)<=c}.
  for (uint32_t l = 0; l < inst.levels.size(); ++l) {
    const Level& level = inst.levels[l];
    if (level.y_threshold <= c) continue;
    double matching = 0;
    double singletons = 0;
    // by_y is ordered by y_min, so the matching prefix is contiguous.
    for (auto it = level.by_y.begin();
         it != level.by_y.end() && it->first.first <= c; ++it) {
      ++matching;
      if (rarity) {
        const Entry& e = level.by_x.at(it->second);
        if (e.y_second > c) ++singletons;
      }
    }
    if (rarity) {
      if (matching == 0) return 0.0;
      return singletons / matching;  // sampling scale cancels in the ratio
    }
    return matching * std::ldexp(1.0, static_cast<int>(l));
  }
  return Status::QueryOutOfRange(
      "correlated F0 query cutoff below every level's discard threshold");
}

Result<double> CorrelatedF0Sketch::Query(uint64_t c) const {
  std::vector<double> estimates;
  estimates.reserve(instances_.size());
  for (const Instance& inst : instances_) {
    auto r = QueryInstance(inst, c, /*rarity=*/false);
    if (r.ok()) estimates.push_back(r.value());
  }
  if (estimates.empty()) {
    return Status::QueryOutOfRange(
        "correlated F0 query failed in every repetition");
  }
  return MedianInPlace(estimates);
}

Result<double> CorrelatedF0Sketch::QueryRarity(uint64_t c) const {
  if (!track_second_) {
    return Status::NotSupported(
        "rarity queries need track_second_occurrence=true "
        "(use CorrelatedRaritySketch)");
  }
  std::vector<double> estimates;
  estimates.reserve(instances_.size());
  for (const Instance& inst : instances_) {
    auto r = QueryInstance(inst, c, /*rarity=*/true);
    if (r.ok()) estimates.push_back(r.value());
  }
  if (estimates.empty()) {
    return Status::QueryOutOfRange(
        "correlated rarity query failed in every repetition");
  }
  return MedianInPlace(estimates);
}

Status CorrelatedF0Sketch::Serialize(std::string* out) const {
  io::Encoder enc(out);
  const size_t patch = io::BeginEnvelope(enc, SummaryKind::kCorrelatedF0,
                                         io::kCorrelatedF0Version);
  EncodeBody(enc);
  io::EndEnvelope(enc, patch);
  return Status::OK();
}

Result<CorrelatedF0Sketch> CorrelatedF0Sketch::Deserialize(
    std::span<const std::byte> bytes) {
  io::Decoder dec(bytes);
  CASTREAM_RETURN_NOT_OK(io::ReadEnvelope(dec, SummaryKind::kCorrelatedF0,
                                          io::kCorrelatedF0Version));
  CASTREAM_ASSIGN_OR_RETURN(CorrelatedF0Sketch summary, DecodeBody(dec));
  if (!dec.Done()) {
    return Status::InvalidArgument(
        "deserialize: unread bytes after the summary body");
  }
  return summary;
}

void CorrelatedF0Sketch::EncodeBody(io::Encoder& enc) const {
  enc.PutU8(track_second_ ? 1 : 0);
  enc.PutU32(alpha_);
  enc.PutU32(options_.Levels());
  enc.PutU32(static_cast<uint32_t>(instances_.size()));
  for (const Instance& inst : instances_) {
    enc.PutU64(inst.hash_seed);
    for (const Level& level : inst.levels) {
      enc.PutU64(level.y_threshold);
      enc.PutU32(static_cast<uint32_t>(level.by_x.size()));
      // by_y order — ascending (y_min, x), one entry per stored x — makes
      // the bytes a pure function of the summary state (by_x iteration
      // order would not be).
      for (const auto& [key, x] : level.by_y) {
        const Entry& e = level.by_x.at(x);
        enc.PutU64(x);
        enc.PutU64(e.y_min);
        enc.PutU64(e.y_second);
      }
    }
  }
}

Result<CorrelatedF0Sketch> CorrelatedF0Sketch::DecodeBody(io::Decoder& dec) {
  uint8_t track_second = 0;
  uint32_t alpha = 0, levels = 0, repetitions = 0;
  CASTREAM_RETURN_NOT_OK(dec.ReadU8(&track_second));
  CASTREAM_RETURN_NOT_OK(dec.ReadU32(&alpha));
  CASTREAM_RETURN_NOT_OK(dec.ReadU32(&levels));
  CASTREAM_RETURN_NOT_OK(dec.ReadU32(&repetitions));
  if (track_second > 1 || alpha < 1 || levels < 1 || levels > 40 ||
      repetitions < 1 || repetitions > 4096 ||
      repetitions > dec.remaining() / 8) {
    return Status::InvalidArgument(
        "decode: correlated-F0 parameters out of range");
  }
  // Options that reproduce the serialized derived values through the normal
  // constructor: Levels() = CeilLog2(x_domain + 1) + 1, so x_domain =
  // 2^(levels-1) - 1 maps back exactly for levels in [1, 40].
  CorrelatedF0Options opts;
  opts.alpha_override = alpha;
  opts.repetitions_override = repetitions;
  opts.x_domain = (uint64_t{1} << (levels - 1)) - 1;
  CorrelatedF0Sketch out(opts, /*seed=*/0, track_second != 0);
  if (out.alpha_ != alpha || out.options_.Levels() != levels ||
      out.instances_.size() != repetitions) {
    return Status::Internal(
        "decode: options reconstruction did not reproduce the serialized "
        "parameters");
  }
  for (Instance& inst : out.instances_) {
    CASTREAM_RETURN_NOT_OK(dec.ReadU64(&inst.hash_seed));
    for (Level& level : inst.levels) {
      CASTREAM_RETURN_NOT_OK(dec.ReadU64(&level.y_threshold));
      uint32_t n = 0;
      CASTREAM_RETURN_NOT_OK(dec.ReadCount(&n, 24));
      if (n > alpha) {
        return Status::InvalidArgument(
            "decode: level entry count exceeds the budget");
      }
      level.by_x.clear();
      level.by_y.clear();
      level.by_x.reserve(n);
      uint64_t prev_y = 0, prev_x = 0;
      for (uint32_t i = 0; i < n; ++i) {
        uint64_t x = 0;
        Entry e{0, 0};
        CASTREAM_RETURN_NOT_OK(dec.ReadU64(&x));
        CASTREAM_RETURN_NOT_OK(dec.ReadU64(&e.y_min));
        CASTREAM_RETURN_NOT_OK(dec.ReadU64(&e.y_second));
        if (e.y_second < e.y_min ||
            (track_second == 0 && e.y_second != UINT64_MAX)) {
          return Status::InvalidArgument(
              "decode: entry occurrence values inconsistent");
        }
        if (i > 0 && (e.y_min < prev_y ||
                      (e.y_min == prev_y && x <= prev_x))) {
          return Status::InvalidArgument(
              "decode: entries not strictly ascending by (y_min, x)");
        }
        prev_y = e.y_min;
        prev_x = x;
        if (!level.by_x.emplace(x, e).second) {
          return Status::InvalidArgument(
              "decode: duplicate identifier in one level");
        }
        level.by_y.emplace(std::make_pair(e.y_min, x), x);
      }
    }
  }
  return out;
}

Status CorrelatedRaritySketch::Serialize(std::string* out) const {
  io::Encoder enc(out);
  const size_t patch = io::BeginEnvelope(enc, SummaryKind::kCorrelatedRarity,
                                         io::kCorrelatedRarityVersion);
  inner_.EncodeBody(enc);
  io::EndEnvelope(enc, patch);
  return Status::OK();
}

Result<CorrelatedRaritySketch> CorrelatedRaritySketch::Deserialize(
    std::span<const std::byte> bytes) {
  io::Decoder dec(bytes);
  CASTREAM_RETURN_NOT_OK(io::ReadEnvelope(dec, SummaryKind::kCorrelatedRarity,
                                          io::kCorrelatedRarityVersion));
  CASTREAM_ASSIGN_OR_RETURN(CorrelatedF0Sketch inner,
                            CorrelatedF0Sketch::DecodeBody(dec));
  if (!dec.Done()) {
    return Status::InvalidArgument(
        "deserialize: unread bytes after the summary body");
  }
  if (!inner.tracks_second_occurrence()) {
    return Status::InvalidArgument(
        "deserialize: rarity blob does not track second occurrences");
  }
  return CorrelatedRaritySketch(std::move(inner));
}

size_t CorrelatedF0Sketch::StoredTuplesEquivalent() const {
  size_t total = 0;
  for (const Instance& inst : instances_) {
    for (const Level& level : inst.levels) {
      total += level.by_x.size() * (track_second_ ? 2 : 1);
    }
  }
  return total;
}

size_t CorrelatedF0Sketch::SizeBytes() const {
  size_t total = 0;
  for (const Instance& inst : instances_) {
    for (const Level& level : inst.levels) {
      // by_x entry: key + 2 values + node overhead; by_y entry: pair key +
      // value + red-black node overhead.
      total += level.by_x.size() * (3 * sizeof(uint64_t) + 16);
      total += level.by_y.size() * (3 * sizeof(uint64_t) + 32);
    }
  }
  return total;
}

}  // namespace castream
