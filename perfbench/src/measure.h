// Measurement helpers of the perfbench harness: percentiles that state how
// far the sample supports them, the open-loop schedule with its lateness
// accounting, process memory readings, and the in-memory span recorder of
// the traced run. Everything here is pure or process-local; the workloads
// in workloads.cc are the only callers besides the self-tests.
#ifndef PERFBENCH_SRC_MEASURE_H_
#define PERFBENCH_SRC_MEASURE_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// \brief Nearest-rank percentile (p in (0, 100]) of `samples`; 0 when empty.
/// Sorts a copy, so callers keep their sample order.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::ceil(p / 100.0 * static_cast<double>(samples.size()) - 1e-9);
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

inline double Median(const std::vector<double>& samples) {
  return Percentile(samples, 50.0);
}

/// \brief Samples strictly above the nearest-rank p-th percentile position.
inline uint64_t SamplesBeyond(uint64_t n, double p) {
  // The epsilon keeps e.g. 99.9% of 10000 at rank 9990 despite rounding.
  const auto rank = static_cast<uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return n > rank ? n - rank : 0;
}

/// \brief The highest of the reportable percentiles (50, 90, 95, 99, 99.9)
/// that leaves at least ten samples beyond it; 0 when even the median does
/// not (fewer than 20 samples). A tail percentile is only reported where
/// the sample can support it.
inline double HighestSupportedPercentile(uint64_t n) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 50.0};
  for (double p : kLadder) {
    if (SamplesBeyond(n, p) >= 10) return p;
  }
  return 0.0;
}

/// \brief A latency sample reduced to what the report prints: median, p99,
/// the highest tail the sample supports, and the count.
struct LatencySummary {
  double p50 = 0.0;
  double p99 = 0.0;
  double tail_pct = 0.0;  // HighestSupportedPercentile(count)
  double tail = 0.0;      // value at tail_pct
  uint64_t count = 0;
};

inline LatencySummary Summarize(const std::vector<double>& samples) {
  LatencySummary s;
  s.count = samples.size();
  s.p50 = Median(samples);
  s.p99 = Percentile(samples, 99.0);
  s.tail_pct = HighestSupportedPercentile(s.count);
  s.tail = s.tail_pct > 0 ? Percentile(samples, s.tail_pct) : 0.0;
  return s;
}

// ---------------------------------------------------------------------------
// Open-loop schedule
// ---------------------------------------------------------------------------

/// \brief Item i of an open-loop stream is due at start + i / rate,
/// whatever the system under test is doing. Requests are timed from their
/// due time, so a stall charges its wait to every item it delays.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(Clock::time_point start, double rate_per_s)
      : start_(start), rate_(rate_per_s) {}

  Clock::time_point Due(uint64_t i) const {
    return start_ + std::chrono::nanoseconds(static_cast<int64_t>(
                        static_cast<double>(i) * 1e9 / rate_));
  }

 private:
  Clock::time_point start_;
  double rate_;
};

/// \brief Sleeps until shortly before `t`, then spins to it. An open-loop
/// generator that slept all the way would add its own wake-up delay, which
/// on a VM is tens of microseconds and drifts between runs, to every
/// latency it measures from a due time.
inline void SleepUntilPrecise(Clock::time_point t) {
  constexpr auto kSpin = std::chrono::microseconds(200);
  if (Clock::now() + kSpin < t) std::this_thread::sleep_until(t - kSpin);
  while (Clock::now() < t) {
  }
}

/// \brief How late an open-loop generator handed items in against their
/// schedule. The generator hands in chunks; a chunk is charged the
/// lateness of its last item, the one whose due time released it, so an
/// on-schedule generator records ~0 and a stalled one records its stall.
class LatenessLog {
 public:
  void Record(Clock::time_point due, Clock::time_point handed) {
    lags_ms_.push_back(handed > due ? Ms(handed - due) : 0.0);
  }
  const std::vector<double>& lags_ms() const { return lags_ms_; }

 private:
  std::vector<double> lags_ms_;
};

// ---------------------------------------------------------------------------
// Process memory
// ---------------------------------------------------------------------------

/// \brief A "VmHWM:" / "VmRSS:" line of /proc/self/status in KiB; 0 when
/// unavailable.
inline uint64_t ProcStatusKiB(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::strtoull(line.c_str() + key.size(), nullptr, 10);
    }
  }
  return 0;
}

/// \brief Resets the resident-set high-water mark to the current RSS
/// (writing 5 to /proc/self/clear_refs), so transient peaks of input
/// generation and the oracle pre-pass do not count. False if the kernel
/// refused.
inline bool RebaseRssHighWater() {
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Spans (traced run only)
// ---------------------------------------------------------------------------

/// \brief One timed call into a layer, recorded from the benchmark's own
/// code around the call. `parent` is the id of the enclosing span (0 for a
/// root); spans of one publish tick or one query share `group`.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t group = 0;
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
};

/// \brief Thread-safe in-memory span store. Disabled recorders record
/// nothing and cost one branch, so the untraced run calls the same code.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  uint64_t Add(const std::string& name, Clock::time_point start,
               Clock::time_point end, uint64_t parent = 0,
               uint64_t group = 0) {
    if (!enabled_) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t id = spans_.size() + 1;
    spans_.push_back(Span{id, parent, group, name, start, end});
    return id;
  }

  /// \brief Sets the end of span `id` (for a parent opened before its
  /// children ran). No-op when disabled.
  void End(uint64_t id, Clock::time_point end) {
    if (!enabled_ || id == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end = end;
  }

  /// \brief Durations in ms of every span called `name`.
  std::vector<double> DurationsMs(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(Ms(s.end - s.start));
    }
    return out;
  }

  std::vector<Span> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// \brief Writes every span as one tab-separated line (id, parent,
  /// group, name, start_us, end_us relative to `origin`).
  bool WriteTsv(const std::string& path, Clock::time_point origin) const {
    std::ofstream out(path);
    if (!out) return false;
    std::lock_guard<std::mutex> lock(mu_);
    out << std::fixed << std::setprecision(3)
        << "id\tparent\tgroup\tname\tstart_us\tend_us\n";
    for (const Span& s : spans_) {
      out << s.id << '\t' << s.parent << '\t' << s.group << '\t' << s.name
          << '\t' << Ms(s.start - origin) * 1000.0 << '\t'
          << Ms(s.end - origin) * 1000.0 << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// \brief Self time of every span: its duration minus the part of it its
/// direct children cover (overlapping children are unioned). Indexed like
/// `spans`.
inline std::vector<double> SelfTimesMs(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::vector<double> out;
  out.reserve(spans.size());
  for (const Span& s : spans) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
      for (const Span* c : it->second) {
        const auto a = std::max(c->start, s.start);
        const auto b = std::min(c->end, s.end);
        if (a < b) iv.emplace_back(a, b);
      }
      std::sort(iv.begin(), iv.end());
      Clock::time_point cur_a{}, cur_b{};
      bool open = false;
      for (const auto& [a, b] : iv) {
        if (open && a <= cur_b) {
          cur_b = std::max(cur_b, b);
        } else {
          if (open) covered += Ms(cur_b - cur_a);
          cur_a = a;
          cur_b = b;
          open = true;
        }
      }
      if (open) covered += Ms(cur_b - cur_a);
    }
    out.push_back(Ms(s.end - s.start) - covered);
  }
  return out;
}

/// \brief The visibility self-check: the median self time of each stage on
/// the path, summed, against the median visibility. A stage left out of the
/// breakdown shows as a shortfall. Medians do not add exactly, so the check
/// allows `tolerance` (a share of the median visibility) either way.
struct StageSum {
  double sum_ms = 0.0;      // sum over stages of their median self time
  double visible_ms = 0.0;  // median visibility
  bool ok = false;
};

inline StageSum CheckStageSum(
    const std::map<std::string, std::vector<double>>& stage_self_ms,
    const std::vector<double>& visible_ms, double tolerance) {
  StageSum out;
  for (const auto& [name, samples] : stage_self_ms) out.sum_ms += Median(samples);
  out.visible_ms = Median(visible_ms);
  out.ok = !visible_ms.empty() &&
           std::fabs(out.sum_ms - out.visible_ms) <= tolerance * out.visible_ms;
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_MEASURE_H_
