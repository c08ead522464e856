// Self-tests of the benchmark's own machinery: the percentile helper, the
// open-loop lateness accounting, span self-times and the visibility
// stage-sum check. Run with `python3 perfbench/run.py --self-test`, which
// also runs tests/test_run.py (metric-name validation).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "measure.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

bool Near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

using perfbench::Clock;
using std::chrono::microseconds;
using std::chrono::milliseconds;

void TestPercentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  CHECK(Near(perfbench::Percentile(v, 50), 50));
  CHECK(Near(perfbench::Percentile(v, 99), 99));
  CHECK(Near(perfbench::Percentile(v, 100), 100));
  CHECK(Near(perfbench::Percentile(v, 0.5), 1));
  CHECK(Near(perfbench::Percentile({}, 50), 0));
  CHECK(Near(perfbench::Median({7}), 7));
  CHECK(Near(v.front(), 100));  // the caller's order is untouched
}

void TestHighestSupportedPercentile() {
  // At least ten samples must lie beyond the reported percentile.
  CHECK(perfbench::SamplesBeyond(1000, 99) == 10);
  CHECK(perfbench::SamplesBeyond(999, 99) == 9);
  CHECK(Near(perfbench::HighestSupportedPercentile(0), 0));
  CHECK(Near(perfbench::HighestSupportedPercentile(19), 0));
  CHECK(Near(perfbench::HighestSupportedPercentile(20), 50));
  CHECK(Near(perfbench::HighestSupportedPercentile(100), 90));
  CHECK(Near(perfbench::HighestSupportedPercentile(199), 90));
  CHECK(Near(perfbench::HighestSupportedPercentile(200), 95));
  CHECK(Near(perfbench::HighestSupportedPercentile(999), 95));
  CHECK(Near(perfbench::HighestSupportedPercentile(1000), 99));
  CHECK(Near(perfbench::HighestSupportedPercentile(9999), 99));
  CHECK(Near(perfbench::HighestSupportedPercentile(10000), 99.9));

  std::vector<double> v(1000, 1.0);
  v[995] = 50.0;
  const perfbench::LatencySummary s = perfbench::Summarize(v);
  CHECK(s.count == 1000);
  CHECK(Near(s.tail_pct, 99));
  CHECK(Near(s.tail, s.p99));
  CHECK(Near(s.p50, 1.0));
  v.resize(500);
  CHECK(Near(perfbench::Summarize(v).tail_pct, 95));
  CHECK(Near(perfbench::Summarize(std::vector<double>(19, 1.0)).tail, 0));
}

void TestOpenLoopSchedule() {
  const Clock::time_point t0 = Clock::now();
  const perfbench::OpenLoopSchedule s(t0, 1000.0);  // one item per ms
  CHECK(s.Due(0) == t0);
  CHECK(s.Due(1) == t0 + milliseconds(1));
  CHECK(s.Due(1000) == t0 + std::chrono::seconds(1));
  // The schedule does not drift: item i is due at exactly i / rate.
  CHECK(s.Due(123456) == t0 + milliseconds(123456));
}

void TestLatenessAccounting() {
  // A generator that hands in 10-item chunks when each chunk's last item is
  // due, stalls for 25 ms (a publish tick) after the third chunk, then
  // catches up as fast as it can.
  const Clock::time_point t0 = Clock::now();
  const perfbench::OpenLoopSchedule s(t0, 1000.0);
  perfbench::LatenessLog log;
  Clock::time_point now = t0;
  for (uint64_t chunk = 0; chunk < 8; ++chunk) {
    const Clock::time_point due = s.Due(chunk * 10 + 9);
    if (now < due) now = due;  // on schedule: sleep until due
    log.Record(due, now);
    now += microseconds(100);  // the hand-in itself
    if (chunk == 2) now += milliseconds(25);
  }
  const std::vector<double>& lags = log.lags_ms();
  CHECK(lags.size() == 8);
  CHECK(Near(lags[0], 0) && Near(lags[1], 0) && Near(lags[2], 0));
  // Chunk 3 was due at 39 ms; the stall ended at 29.1 + 25 = 54.1 ms.
  CHECK(Near(lags[3], 15.1, 1e-6));
  // Each later chunk is due 10 ms later but handed in 0.1 ms after the
  // previous one, until the generator is back on schedule.
  CHECK(Near(lags[4], 5.2, 1e-6));
  CHECK(Near(lags[5], 0) && Near(lags[6], 0) && Near(lags[7], 0));
  // Early hand-ins never count as negative lateness.
  perfbench::LatenessLog early;
  early.Record(t0 + milliseconds(5), t0);
  CHECK(Near(early.lags_ms()[0], 0));
}

void TestSelfTimes() {
  const Clock::time_point t0 = Clock::now();
  auto at = [&](int ms) { return t0 + milliseconds(ms); };
  std::vector<perfbench::Span> spans = {
      {1, 0, 1, "visible", at(0), at(10)},
      {2, 1, 1, "a", at(1), at(3)},
      {3, 1, 1, "b", at(2), at(5)},  // overlaps a: union is 1..5
      {4, 1, 1, "c", at(8), at(9)},
      {5, 4, 1, "c.inner", at(8), at(12)},  // clipped to its parent
  };
  const std::vector<double> self = perfbench::SelfTimesMs(spans);
  CHECK(Near(self[0], 5.0, 1e-6));  // 10 - (4 + 1)
  CHECK(Near(self[1], 2.0, 1e-6));
  CHECK(Near(self[3], 0.0, 1e-6));
  CHECK(Near(self[4], 4.0, 1e-6));

  perfbench::SpanRecorder off(false);
  CHECK(off.Add("x", at(0), at(1)) == 0);
  CHECK(off.Snapshot().empty());
  perfbench::SpanRecorder on(true);
  const uint64_t id = on.Add("x", at(0), at(2));
  on.Add("y", at(0), at(1), id);
  CHECK(on.DurationsMs("x").size() == 1 && Near(on.DurationsMs("x")[0], 2.0));
}

void TestStageSum() {
  // Three ticks whose visibility is exactly the sum of three stages.
  std::map<std::string, std::vector<double>> stages = {
      {"flush", {1, 2, 3}}, {"publish", {10, 10, 11}}, {"query", {4, 5, 6}}};
  const std::vector<double> visible = {15, 17, 20};
  perfbench::StageSum s = perfbench::CheckStageSum(stages, visible, 0.10);
  CHECK(Near(s.sum_ms, 17) && Near(s.visible_ms, 17) && s.ok);
  // A stage missing from the breakdown (publish, 10 of 17 ms) fails it.
  stages.erase("publish");
  s = perfbench::CheckStageSum(stages, visible, 0.10);
  CHECK(Near(s.sum_ms, 7) && !s.ok);
  // So does a stage counted twice, and so does an empty run.
  stages["publish"] = {10, 10, 11};
  stages["publish.again"] = {10, 10, 11};
  CHECK(!perfbench::CheckStageSum(stages, visible, 0.10).ok);
  CHECK(!perfbench::CheckStageSum({}, {}, 0.10).ok);
}

}  // namespace

int main() {
  TestPercentile();
  TestHighestSupportedPercentile();
  TestOpenLoopSchedule();
  TestLatenessAccounting();
  TestSelfTimes();
  TestStageSum();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
