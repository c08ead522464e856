#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "inputs.h"
#include "measure.h"
#include "src/core/any_summary.h"
#include "src/core/correlated_chh.h"
#include "src/driver/sharded_driver.h"
#include "src/service/client.h"
#include "src/service/publisher.h"
#include "src/service/reducer.h"
#include "src/service/relay.h"

namespace perfbench {
namespace {

using castream::AnySummary;
using castream::QueryMode;
using castream::QueryOptions;
using castream::ShardedDriver;
using castream::ShardedDriverOptions;
using castream::Status;
using castream::SummaryOptions;
namespace svc = castream::service;

using Driver = ShardedDriver<AnySummary>;

constexpr uint64_t kSummarySeed = 42;
constexpr uint32_t kRelayId = 1000;
constexpr double kF2Eps = 0.25;
constexpr double kChhPhi = 0.05;
constexpr uint32_t kShards = 2;  // per driver
// Open-loop readers' rate, and the warm-up before the measured window.
constexpr double kQueryRate = 200.0;
constexpr double kWarmSeconds = 1.0;
// Set-up is timed up to a first real unit of work: one publish tick on the
// served workloads, this many tuples ingested and flushed on the others.
// Timing only thread and socket creation would be dominated by VM wake-up
// latency, which drifts between runs far more than the program does.
constexpr int kSetupSamples = 61;
constexpr size_t kSetupPrimeTuples = 65536;
constexpr double kOpenLoopRateTolerance = 0.95;
constexpr double kStageSumTolerance = 0.10;
const QueryOptions kSnapshotQuery{.mode = QueryMode::kSnapshot};

/// \brief Runs an idempotent `f` now (Run) and again on scope exit. Used
/// to stop and join helper threads, so that no early return or exception
/// can destroy a joinable std::thread.
template <typename F>
class ScopeExit {
 public:
  explicit ScopeExit(F f) : f_(std::move(f)) {}
  ScopeExit(const ScopeExit&) = delete;
  ScopeExit& operator=(const ScopeExit&) = delete;
  ~ScopeExit() { f_(); }
  void Run() { f_(); }

 private:
  F f_;
};

// ---------------------------------------------------------------------------
// Summary kinds and their oracle checks
// ---------------------------------------------------------------------------

struct KindConfig {
  std::string kind;
  SummaryOptions options;
};

KindConfig F2Kind() {
  SummaryOptions o;
  o.eps = kF2Eps;
  o.delta = 0.05;
  o.y_max = kYMax;
  o.f_max_hint = 1e12;
  return {"f2", o};
}

KindConfig ChhKind() {
  SummaryOptions o;
  o.y_max = kYMax;
  o.phi_eps = kChhPhi;
  o.chh_y_eps = 0.05;
  return {"chh_mg", o};
}

AnySummary MakeOrDie(const KindConfig& k) {
  auto made = castream::MakeSummary(k.kind, k.options, kSummarySeed);
  if (!made.ok()) {
    std::fprintf(stderr, "perfbench: MakeSummary(%s) failed: %s\n",
                 k.kind.c_str(), made.status().ToString().c_str());
    std::abort();
  }
  return std::move(made).value();
}

/// \brief Counts operations attempted and failed (queries, publishes,
/// oracle checks), keeping the first few failure messages.
class Ledger {
 public:
  void Op(bool ok, const std::string& what) {
    attempted_.fetch_add(1);
    if (!ok) Fail(what);
  }
  /// \brief Failures the system reports itself (rejected publishes, bad
  /// frames) rather than one of our own calls.
  void Fail(const std::string& what, uint64_t count = 1) {
    if (count == 0) return;
    failed_.fetch_add(count);
    std::lock_guard<std::mutex> lock(mu_);
    if (errors_.size() < 20) errors_.push_back(what);
  }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  std::vector<std::string> errors() const {
    std::lock_guard<std::mutex> lock(mu_);
    return errors_;
  }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  mutable std::mutex mu_;
  std::vector<std::string> errors_;
};

/// \brief One scalar answer against the exact oracle at cutoff index k:
/// f2 within its eps guarantee; chh_mg never above the true prefix count
/// (its folded counters are lower bounds).
void CheckScalar(const KindConfig& kind, const Oracle& oracle, size_t k,
                 bool ok, double estimate, const char* where, Ledger& ledger) {
  bool pass = ok;
  if (pass && kind.kind == "f2") {
    pass = std::fabs(estimate - oracle.f2[k]) <= kF2Eps * oracle.f2[k];
  } else if (pass) {
    pass = estimate >= 0.0 &&
           estimate <= static_cast<double>(oracle.count[k]) + 1e-9;
  }
  char what[160];
  std::snprintf(what, sizeof what, "oracle: %s at cutoff %llu: %.6g", where,
                static_cast<unsigned long long>(Cutoffs()[k]), estimate);
  ledger.Op(pass, what);
}

/// \brief The nested Misra-Gries guarantees on a whole-stream summary:
/// exact total weight, and every item whose prefix frequency reaches
/// phi * N reported at every cutoff (phi = phi_eps).
void CheckChhSummary(const AnySummary& summary, const Oracle& oracle,
                     Ledger& ledger) {
  const auto* mg = summary.TryAs<castream::CorrelatedNestedMisraGries>();
  ledger.Op(mg != nullptr && mg->TotalWeight() == oracle.n,
            "oracle: chh_mg total weight");
  for (size_t k = 0; k < Cutoffs().size(); ++k) {
    auto hitters = summary.QueryHeavyHitters(Cutoffs()[k], kChhPhi);
    bool pass = hitters.ok();
    for (uint64_t x : oracle.heavy[k]) {
      bool found = false;
      if (pass) {
        for (const auto& h : hitters.value()) found |= (h.item == x);
      }
      char what[160];
      std::snprintf(what, sizeof what,
                    "oracle: chh_mg heavy hitter %llu missing at cutoff %llu",
                    static_cast<unsigned long long>(x),
                    static_cast<unsigned long long>(Cutoffs()[k]));
      ledger.Op(found, what);
    }
  }
}

// ---------------------------------------------------------------------------
// Per-pass results
// ---------------------------------------------------------------------------

/// \brief What one pass measured. End-to-end numbers are taken directly;
/// per-layer timings are the spans of the pass's recorder (traced passes
/// only), so only counts and samples that are not call durations live here.
struct PassResult {
  // End to end.
  std::vector<double> tps_samples;  // closed loop: one per round
  double ingest_tps = 0.0;
  double offered_tps = 0.0;  // open loop only
  std::vector<double> query_ms;
  std::vector<double> served_query_ms;  // QueryServed over loopback
  std::vector<double> visible_ms;
  std::vector<double> gen_lag_ms;
  double wire_bytes = 0.0;
  uint64_t worker_publishes = 0;  // accepted worker-hop publishes
  double worker_bytes = 0.0;      // their payload bytes
  uint64_t tuples = 0;
  // Driver layer counts and samples.
  uint64_t insert_tuples = 0;  // tuples inside the timed driver.insert spans
  std::vector<double> backlog;
  uint64_t coalesce_in = 0;
  uint64_t coalesce_out = 0;
  uint64_t driver_queries = 0;
  uint64_t next_query = 0;  // index of the next latency query's cutoff
  uint64_t driver_merges = 0;
  uint64_t driver_publishes = 0;
  double driver_seconds = 0.0;
  // Service and relay counters (served workloads).
  bool served = false;
  bool relayed = false;
  uint64_t accepted = 0;
  uint64_t duplicate = 0;
  uint64_t rejected = 0;
  uint64_t bad_frames = 0;
  uint64_t republishes = 0;
  // Visibility-path stage breakdown (traced serve_f2): each stage's self
  // time per tick, and the part of each tick no stage covers.
  std::map<std::string, std::vector<double>> stage_self_ms;
  std::vector<double> unaccounted_ms;
};

void CollectDriverStats(Driver& driver, PassResult& r) {
  r.driver_merges += driver.shard_merges_performed();
  for (uint64_t e : driver.ShardEpochs()) r.driver_publishes += e;
}

/// \brief `driver.Query(c, kSnapshot)`, recorded as a driver.query span;
/// `ms_out` receives its duration.
castream::Result<castream::QueryAnswer> SnapshotQuery(Driver& driver,
                                                      uint64_t c,
                                                      SpanRecorder& rec,
                                                      PassResult& r,
                                                      double* ms_out) {
  const auto a = Clock::now();
  auto answer = driver.Query(c, kSnapshotQuery);
  const auto b = Clock::now();
  rec.Add("driver.query", a, b);
  ++r.driver_queries;
  if (ms_out != nullptr) *ms_out = Ms(b - a);
  return answer;
}

// ---------------------------------------------------------------------------
// Closed-loop ingest workloads
// ---------------------------------------------------------------------------

struct IngestParams {
  Shape shape;
  size_t round_tuples;
  /// Snapshot reader rate during ingest; 0 runs no reader, and then
  /// post_queries queries follow each round's load instead.
  double reader_rate;
  size_t post_queries;
  uint64_t seed = 0;  // of the query cutoffs
};

ShardedDriverOptions IngestDriverOptions() {
  ShardedDriverOptions o;
  o.shards = kShards;
  o.writer_coalesce_slots = 4096;
  return o;
}

/// \brief One round: a fresh driver ingests the whole input from one
/// writer, timed from the first Insert to a completed Flush; then its
/// snapshots are published, queried and checked.
void IngestRound(const KindConfig& kind, const IngestParams& p,
                 const std::vector<Tuple>& input, const Oracle& oracle,
                 SpanRecorder& rec, PassResult& r, Ledger& ledger) {
  Driver driver(IngestDriverOptions(), [&kind] { return MakeOrDie(kind); });
  Driver::Writer writer = driver.MakeWriter();
  std::atomic<bool> ingest_done{false};
  std::vector<double> reader_ms;  // written by the reader thread only
  uint64_t reader_queries = 0;    // likewise
  const auto start = Clock::now();
  const uint64_t first_query = r.next_query;
  std::thread reader;
  if (p.reader_rate > 0) {
    reader = std::thread([&] {
      const OpenLoopSchedule schedule(start, p.reader_rate);
      for (uint64_t j = 0;; ++j) {
        const auto due = schedule.Due(j);
        SleepUntilPrecise(due);
        if (ingest_done.load()) break;
        const auto a = Clock::now();
        auto answer =
            driver.Query(QueryCutoff(p.seed, first_query + j), kSnapshotQuery);
        const auto b = Clock::now();
        rec.Add("driver.query", a, b);
        ledger.Op(answer.ok(), "snapshot query during ingest");
        reader_ms.push_back(Ms(b - due));
        ++reader_queries;
      }
    });
  }
  ScopeExit join_reader{[&] {
    ingest_done.store(true);
    if (reader.joinable()) reader.join();
  }};
  const uint64_t round = rec.Add("ingest.round", start, start);
  constexpr size_t kChunk = 4096;
  for (size_t i = 0; i < input.size(); i += kChunk) {
    const size_t end = std::min(input.size(), i + kChunk);
    const auto a = Clock::now();
    for (size_t k = i; k < end; ++k) writer.Insert(input[k].x, input[k].y);
    if (rec.enabled()) {
      rec.Add("driver.insert", a, Clock::now(), round);
      r.insert_tuples += end - i;
      // Rows handed to the shard stage (after coalescing) not yet ingested.
      r.backlog.push_back(static_cast<double>(writer.coalescer().tuples_out()) -
                          static_cast<double>(driver.tuples_processed()));
    }
  }
  const auto flush_start = Clock::now();
  writer.Flush();
  driver.Flush();
  const auto flushed = Clock::now();
  rec.Add("driver.flush", flush_start, flushed, round);
  join_reader.Run();
  r.tps_samples.push_back(static_cast<double>(input.size()) /
                          Seconds(flushed - start));
  r.tuples += input.size();
  r.coalesce_in += writer.coalescer().tuples_in();
  r.coalesce_out += writer.coalescer().tuples_out();
  r.driver_queries += reader_queries;
  r.next_query += reader_queries;

  const auto pub_start = Clock::now();
  driver.PublishSnapshots();
  const auto published = Clock::now();
  rec.Add("driver.publish", pub_start, published, round);
  rec.End(round, published);

  if (p.reader_rate > 0) {
    r.query_ms.insert(r.query_ms.end(), reader_ms.begin(), reader_ms.end());
  } else {
    for (size_t q = 0; q < p.post_queries; ++q) {
      double ms = 0;
      auto answer =
          SnapshotQuery(driver, QueryCutoff(p.seed, r.next_query++), rec, r, &ms);
      ledger.Op(answer.ok(), "post-load snapshot query");
      r.query_ms.push_back(ms);
    }
  }
  for (size_t k = 0; k < Cutoffs().size(); ++k) {
    auto answer = SnapshotQuery(driver, Cutoffs()[k], rec, r, nullptr);
    CheckScalar(kind, oracle, k, answer.ok(),
                answer.ok() ? answer.value().estimate : 0.0, "driver", ledger);
  }
  CollectDriverStats(driver, r);
}

PassResult RunIngestPass(const KindConfig& kind, const IngestParams& p,
                         const std::vector<Tuple>& input, const Oracle& oracle,
                         double seconds, SpanRecorder& rec, Ledger& ledger) {
  {
    // Warm-up round, not measured: caches, allocator arenas, threads.
    PassResult warmup;
    SpanRecorder off(false);
    IngestRound(kind, p, input, oracle, off, warmup, ledger);
  }
  PassResult r;
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
  do {
    IngestRound(kind, p, input, oracle, rec, r, ledger);
  } while (Clock::now() < stop || r.tps_samples.size() < 3);
  r.driver_seconds = Seconds(Clock::now() - start);
  r.ingest_tps = Median(r.tps_samples);
  return r;
}

double IngestSetupOnce(const KindConfig& kind,
                       const std::vector<Tuple>& input) {
  const auto start = Clock::now();
  Driver driver(IngestDriverOptions(), [&kind] { return MakeOrDie(kind); });
  Driver::Writer writer = driver.MakeWriter();
  const size_t n = std::min(input.size(), kSetupPrimeTuples);
  for (size_t i = 0; i < n; ++i) writer.Insert(input[i].x, input[i].y);
  writer.Flush();
  driver.Flush();
  return Seconds(Clock::now() - start);
}

// ---------------------------------------------------------------------------
// Open-loop served workloads
// ---------------------------------------------------------------------------

struct ServedParams {
  KindConfig kind;
  Shape shape;
  uint32_t workers;
  double rate_per_worker;  // tuples/s
  uint64_t tick_tuples;
  bool relay;
  uint64_t seed = 0;  // of the query cutoffs
};

/// \brief Root reducer, optional relay, and one driver + publisher per
/// worker, torn down children-first.
struct Topology {
  std::unique_ptr<svc::SnapshotReducer> root;
  std::unique_ptr<svc::RelayNode> relay;
  std::vector<std::unique_ptr<Driver>> drivers;
  std::vector<std::unique_ptr<svc::ShardPublisher>> publishers;

  Topology() = default;
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;
  ~Topology() { Stop(); }

  uint16_t leaf_port() const { return relay ? relay->port() : root->port(); }

  void Stop() {
    publishers.clear();
    drivers.clear();
    if (relay) (void)relay->Shutdown();
    relay.reset();
    if (root) root->Shutdown();
    root.reset();
  }
};

svc::ReducerOptions ReducerOptionsFor(const KindConfig& kind) {
  svc::ReducerOptions ro;
  ro.kind = kind.kind;
  ro.summary = kind.options;
  ro.summary_seed = kSummarySeed;
  return ro;
}

Status StartTopology(const ServedParams& p, Topology* t) {
  const svc::ReducerOptions ro = ReducerOptionsFor(p.kind);
  CASTREAM_ASSIGN_OR_RETURN(t->root, svc::SnapshotReducer::Start(ro));
  if (p.relay) {
    svc::RelayOptions rl;
    rl.reducer = ro;
    rl.upstream.port = t->root->port();
    rl.upstream.worker_id = kRelayId;
    CASTREAM_ASSIGN_OR_RETURN(t->relay, svc::RelayNode::Start(rl));
  }
  ShardedDriverOptions dopts;
  dopts.shards = kShards;
  for (uint32_t w = 0; w < p.workers; ++w) {
    const KindConfig kind = p.kind;
    t->drivers.push_back(std::make_unique<Driver>(
        dopts, [kind] { return MakeOrDie(kind); }));
    svc::PublisherOptions po;
    po.port = t->leaf_port();
    po.worker_id = w;
    t->publishers.push_back(std::make_unique<svc::ShardPublisher>(po));
  }
  return Status::OK();
}

using Interval = std::pair<Clock::time_point, Clock::time_point>;

/// \brief One publish tick: Flush, PublishSnapshots, then per shard
/// SerializeShardSnapshot + ShardPublisher::Publish — the calls
/// service::PublishFreshSnapshots makes, spelled out so each is timed.
struct Tick {
  uint32_t worker = 0;
  bool measured = false;
  Clock::time_point due_last;  // due time of the tick's last tuple
  Clock::time_point handed;    // that tuple's chunk handed in
  Clock::time_point inserted;  // ... and its Insert calls returned
  Clock::time_point start, flushed, published, acked;
  std::vector<Interval> serialize;
  std::vector<Interval> publish;
  std::vector<uint64_t> epochs;  // per shard, after this tick
  uint64_t bytes = 0;
};

void PublishTick(Driver& driver, svc::ShardPublisher& publisher, Tick& t,
                 SpanRecorder& rec, Ledger& ledger) {
  t.start = Clock::now();
  driver.Flush();
  t.flushed = Clock::now();
  driver.PublishSnapshots();
  t.published = Clock::now();
  t.epochs.assign(driver.shard_count(), 0);
  for (uint32_t s = 0; s < driver.shard_count(); ++s) {
    std::string blob;
    uint64_t epoch = 0;
    const auto a = Clock::now();
    Status st = driver.SerializeShardSnapshot(s, &blob, &epoch);
    const auto b = Clock::now();
    t.serialize.emplace_back(a, b);
    if (!st.ok()) {
      ledger.Op(false, "serialize: " + st.ToString());
      continue;
    }
    if (epoch == 0) continue;
    st = publisher.Publish(s, epoch, blob);
    t.publish.emplace_back(b, Clock::now());
    ledger.Op(st.ok(), "publish: " + st.ToString());
    t.epochs[s] = epoch;
    t.bytes += blob.size();
  }
  t.acked = Clock::now();
  if (rec.enabled()) {
    const uint64_t tick = rec.Add("tick", t.start, t.acked);
    rec.Add("driver.flush", t.start, t.flushed, tick);
    rec.Add("driver.publish", t.flushed, t.published, tick);
    for (const auto& [a, b] : t.serialize) rec.Add("io.serialize", a, b, tick);
    for (const auto& [a, b] : t.publish) rec.Add("service.publish", a, b, tick);
  }
}

struct WorkerLog {
  std::vector<Tick> ticks;
  LatenessLog lateness;  // measured window only
  uint64_t measured_tuples = 0;
  Clock::time_point last_handed;
  uint64_t insert_tuples = 0;
  std::vector<double> backlog;
};

/// \brief The open-loop generator of one worker: hands in chunks of at
/// most 256 tuples when the chunk's last tuple is due, and runs a publish
/// tick after every tick_tuples tuples (and after the last).
void RunServedWorker(uint32_t w, const std::vector<Tuple>& input,
                     Driver& driver, svc::ShardPublisher& publisher,
                     const OpenLoopSchedule& schedule, uint64_t tick_tuples,
                     Clock::time_point measure_from, SpanRecorder& rec,
                     WorkerLog& log, Ledger& ledger,
                     const std::function<void()>& on_tick) {
  constexpr size_t kChunk = 256;
  size_t handed = 0;
  while (handed < input.size()) {
    const size_t next_tick = (handed / tick_tuples + 1) * tick_tuples;
    const size_t end = std::min({input.size(), handed + kChunk, next_tick});
    const auto due = schedule.Due(end - 1);
    SleepUntilPrecise(due);
    const auto h = Clock::now();
    for (size_t i = handed; i < end; ++i) driver.Insert(input[i].x, input[i].y);
    const auto inserted = Clock::now();
    const bool measured = due >= measure_from;
    if (measured) {
      log.lateness.Record(due, h);
      log.measured_tuples += end - handed;
      log.last_handed = inserted;
    }
    if (rec.enabled()) {
      rec.Add("driver.insert", h, inserted);
      log.insert_tuples += end - handed;
      log.backlog.push_back(static_cast<double>(end) -
                            static_cast<double>(driver.tuples_processed()));
    }
    handed = end;
    if (handed % tick_tuples == 0 || handed == input.size()) {
      Tick t;
      t.worker = w;
      t.measured = measured;
      t.due_last = due;
      t.handed = h;
      t.inserted = inserted;
      PublishTick(driver, publisher, t, rec, ledger);
      log.ticks.push_back(std::move(t));
      on_tick();
    }
  }
}

struct Answer {
  Clock::time_point due, sent, done;
  bool ok = false;
  std::vector<svc::EpochEntry> epochs;
};

/// \brief Whether an answer's epoch vector includes worker t.worker's
/// shards at (at least) the epochs tick t published.
bool Covers(const std::vector<svc::EpochEntry>& epochs, const Tick& t) {
  for (uint32_t s = 0; s < t.epochs.size(); ++s) {
    if (t.epochs[s] == 0) continue;
    bool found = false;
    for (const auto& e : epochs) {
      if (e.worker == t.worker && e.shard == s && e.epoch >= t.epochs[s]) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

/// \brief The first answer (in completion order) whose epoch vector covers
/// tick t, or nullptr.
const Answer* FirstCovering(const std::vector<Answer>& answers, const Tick& t) {
  auto it = std::lower_bound(
      answers.begin(), answers.end(), t.start,
      [](const Answer& a, Clock::time_point x) { return a.done < x; });
  for (; it != answers.end(); ++it) {
    if (it->ok && Covers(it->epochs, t)) return &*it;
  }
  return nullptr;
}

/// \brief Records the visibility path of one tick as a span tree — a root
/// from the tick's last due time to the covering answer, one child per
/// stage — and adds each stage's self time to r.stage_self_ms. The client
/// wait runs from the last ack to the covering query's send; a query sent
/// before the ack (and answered after it) is counted from the ack, so that
/// no two stages share an interval.
void RecordVisibilityPath(const Tick& t, const Answer& cover, uint64_t group,
                          SpanRecorder& rec, PassResult& r) {
  const auto query_from = std::max(cover.sent, t.acked);
  std::vector<Span> spans;
  auto add = [&](const char* name, Clock::time_point a, Clock::time_point b) {
    spans.push_back(Span{spans.size() + 1, spans.empty() ? 0u : 1u, group,
                         name, a, b});
  };
  add("vis.visible", t.due_last, cover.done);
  add("vis.gen.lag", t.due_last, t.handed);
  add("vis.driver.insert", t.handed, t.inserted);
  add("vis.driver.flush", t.start, t.flushed);
  add("vis.driver.publish", t.flushed, t.published);
  for (const auto& [a, b] : t.serialize) add("vis.io.serialize", a, b);
  for (const auto& [a, b] : t.publish) add("vis.service.publish", a, b);
  add("vis.client.wait", t.acked, query_from);
  add("vis.service.query", query_from, cover.done);

  const std::vector<double> self = SelfTimesMs(spans);
  std::map<std::string, double> per_stage;
  for (size_t i = 1; i < spans.size(); ++i) per_stage[spans[i].name] += self[i];
  for (const auto& [name, ms] : per_stage) {
    r.stage_self_ms[name.substr(4)].push_back(ms);
  }
  r.unaccounted_ms.push_back(self[0]);
  const uint64_t root = rec.Add(spans[0].name, spans[0].start, spans[0].end,
                                0, group);
  for (size_t i = 1; i < spans.size(); ++i) {
    rec.Add(spans[i].name, spans[i].start, spans[i].end, root, group);
  }
}

PassResult RunServedPass(const ServedParams& p,
                         const std::vector<std::vector<Tuple>>& inputs,
                         const Oracle& oracle, double seconds,
                         SpanRecorder& rec, Ledger& ledger) {
  PassResult r;
  r.served = true;
  r.relayed = p.relay;
  Topology topo;
  if (Status st = StartTopology(p, &topo); !st.ok()) {
    ledger.Op(false, "start topology: " + st.ToString());
    return r;
  }
  svc::SnapshotReducer& root = *topo.root;
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point measure_from =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(kWarmSeconds));
  const Clock::time_point measure_to =
      measure_from + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));

  // Two readers. The client sends QueryServed over loopback at kQueryRate,
  // open loop, what a remote user sees; its answers time visibility and
  // are reported as served_query_* (not gated: loopback connect and thread
  // wake-up latency on shared VMs drift by tens of percent between runs).
  std::atomic<bool> readers_stop{false};
  std::vector<Answer> answers;  // written by the client thread only
  const uint16_t root_port = root.port();
  std::thread client([&] {
    const OpenLoopSchedule schedule(t0, kQueryRate);
    for (uint64_t j = 0;; ++j) {
      const auto due = schedule.Due(j);
      SleepUntilPrecise(due);
      if (readers_stop.load()) break;
      Answer a;
      a.due = due;
      a.sent = Clock::now();
      auto served = svc::QueryServed("127.0.0.1", root_port,
                                     QueryCutoff(p.seed, j),
                                     std::chrono::milliseconds(5000));
      a.done = Clock::now();
      rec.Add("service.query_rtt", a.sent, a.done);
      a.ok = served.ok() && served.value().status.ok();
      ledger.Op(a.ok, "served query: " + (served.ok()
                                              ? served.value().status.ToString()
                                              : served.status().ToString()));
      if (a.ok) a.epochs = std::move(served).value().epochs;
      answers.push_back(std::move(a));
    }
  });
  // The gated query latency: one in-process SnapshotReducer::Answer as soon
  // as each publish tick is acked, the first query that has to re-merge the
  // new multi-MB snapshots, timed from the call (the wake-up is not the
  // reducer's cost). Cache hits between ticks cost tens of microseconds, so
  // little that a run-to-run comparison could resolve.
  std::mutex tick_mu;
  std::condition_variable tick_cv;
  uint64_t ticks_acked = 0;  // guarded by tick_mu
  std::vector<Answer> fresh;  // written by the fresh-answer thread only
  std::thread fresher([&] {
    uint64_t seen = 0;
    for (uint64_t j = 0;; ++j) {
      {
        std::unique_lock<std::mutex> lock(tick_mu);
        tick_cv.wait(lock, [&] {
          return readers_stop.load() || ticks_acked > seen;
        });
        if (ticks_acked == seen) break;
        seen = ticks_acked;
      }
      Answer a;
      a.due = a.sent = Clock::now();
      svc::ServedAnswer answer = root.Answer(QueryCutoff(p.seed + 1, j));
      a.done = Clock::now();
      rec.Add("service.fresh_answer", a.sent, a.done);
      a.ok = answer.status.ok();
      ledger.Op(a.ok, "root answer: " + answer.status.ToString());
      fresh.push_back(std::move(a));
    }
  });
  auto on_tick = [&] {
    {
      std::lock_guard<std::mutex> lock(tick_mu);
      ++ticks_acked;
    }
    tick_cv.notify_one();
  };

  ScopeExit join_readers{[&] {
    {
      std::lock_guard<std::mutex> lock(tick_mu);
      readers_stop.store(true);
    }
    tick_cv.notify_one();
    if (client.joinable()) client.join();
    if (fresher.joinable()) fresher.join();
  }};

  std::vector<WorkerLog> logs(p.workers);
  std::vector<std::thread> workers;
  ScopeExit join_workers{[&] {
    for (std::thread& t : workers) {
      if (t.joinable()) t.join();
    }
  }};
  for (uint32_t w = 0; w < p.workers; ++w) {
    workers.emplace_back([&, w] {
      RunServedWorker(w, inputs[w], *topo.drivers[w], *topo.publishers[w],
                      OpenLoopSchedule(t0, p.rate_per_worker), p.tick_tuples,
                      measure_from, rec, logs[w], ledger, on_tick);
    });
  }
  join_workers.Run();

  // The root must come to cover every worker's last tick (through the
  // relay's republish loop where there is one).
  std::vector<Tick> last;
  for (const WorkerLog& log : logs) {
    if (!log.ticks.empty()) last.push_back(log.ticks.back());
  }
  auto covers_all = [&](const std::vector<svc::EpochEntry>& epochs) {
    for (const Tick& t : last) {
      if (!Covers(epochs, t)) return false;
    }
    return true;
  };
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  bool covered = false;
  while (!covered && Clock::now() < deadline) {
    covered = covers_all(root.Answer(Cutoffs().back()).epochs);
    if (!covered) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ledger.Op(covered, "root epoch vector covers every worker's last tick");
  // Let the client see it too (three query periods), so every measured
  // tick gets a visible time, then stop the readers.
  std::this_thread::sleep_for(
      std::chrono::duration<double>(3.0 / kQueryRate));
  join_readers.Run();

  // Oracle: the root's answers at every cutoff, and for chh_mg the
  // heavy-hitter guarantees on the merged root.
  for (size_t k = 0; k < Cutoffs().size(); ++k) {
    svc::ServedAnswer a = root.Answer(Cutoffs()[k]);
    CheckScalar(p.kind, oracle, k, a.status.ok(), a.estimate, "root", ledger);
  }
  if (p.kind.kind == "chh_mg") {
    auto table = root.MergedRoot();
    ledger.Op(table.ok(), "root MergedRoot");
    if (table.ok()) CheckChhSummary(*table.value().root, oracle, ledger);
  }
  // In-process snapshot queries on every worker's driver (a single worker
  // holds the whole stream, so its answers are checked too).
  for (auto& driver : topo.drivers) {
    for (size_t k = 0; k < Cutoffs().size(); ++k) {
      auto answer = SnapshotQuery(*driver, Cutoffs()[k], rec, r, nullptr);
      if (p.workers == 1) {
        CheckScalar(p.kind, oracle, k, answer.ok(),
                    answer.ok() ? answer.value().estimate : 0.0, "driver",
                    ledger);
      } else {
        ledger.Op(answer.ok(), "worker snapshot query");
      }
    }
    CollectDriverStats(*driver, r);
  }

  // Reducer counters feed failed_ops_frac: rejected publishes and bad
  // frames are failures even when our own calls saw OK.
  auto absorb = [&](svc::SnapshotReducer& reducer, const char* tier) {
    const svc::ReducerStats st = reducer.Stats();
    r.accepted += st.accepted;
    r.duplicate += st.duplicate;
    r.rejected += st.rejected;
    r.bad_frames += st.bad_frames;
    ledger.Fail(std::string(tier) + ": rejected publishes", st.rejected);
    ledger.Fail(std::string(tier) + ": bad frames", st.bad_frames);
    return st;
  };
  const svc::ReducerStats root_stats = absorb(root, "root");
  if (topo.relay) {
    absorb(topo.relay->reducer(), "relay");
    r.republishes = topo.relay->republishes();
    // Every republish ships the merged table; its size barely moves.
    for (const svc::SlotStats& s : root_stats.slots) {
      if (s.worker == kRelayId) {
        r.wire_bytes += static_cast<double>(s.bytes) *
                        static_cast<double>(r.republishes);
      }
    }
  }

  // Visibility, lateness, throughput.
  uint64_t measured_tuples = 0;
  Clock::time_point last_handed = measure_from;
  uint64_t group = 0;
  for (const WorkerLog& log : logs) {
    measured_tuples += log.measured_tuples;
    last_handed = std::max(last_handed, log.last_handed);
    r.gen_lag_ms.insert(r.gen_lag_ms.end(), log.lateness.lags_ms().begin(),
                        log.lateness.lags_ms().end());
    r.insert_tuples += log.insert_tuples;
    r.backlog.insert(r.backlog.end(), log.backlog.begin(), log.backlog.end());
    for (const Tick& t : log.ticks) {
      r.wire_bytes += static_cast<double>(t.bytes);
      r.worker_bytes += static_cast<double>(t.bytes);
      r.worker_publishes += t.publish.size();
      if (!t.measured) continue;
      const Answer* cover = FirstCovering(answers, t);
      if (cover == nullptr) continue;
      r.visible_ms.push_back(Ms(cover->done - t.due_last));
      if (p.relay) {
        rec.Add("relay.hop", t.acked, cover->done);
      } else if (rec.enabled()) {
        RecordVisibilityPath(t, *cover, ++group, rec, r);
      }
    }
  }
  for (const auto& in : inputs) r.tuples += in.size();
  auto in_window = [&](const Answer& a) {
    return a.due >= measure_from && a.due <= measure_to;
  };
  for (const Answer& a : answers) {
    if (in_window(a)) r.served_query_ms.push_back(Ms(a.done - a.due));
  }
  for (const Answer& a : fresh) {
    if (in_window(a)) r.query_ms.push_back(Ms(a.done - a.due));
  }
  const double window_s = Seconds(last_handed - measure_from);
  r.offered_tps = p.rate_per_worker * p.workers;
  r.ingest_tps =
      window_s > 0 ? static_cast<double>(measured_tuples) / window_s : 0.0;
  ledger.Op(r.ingest_tps >= kOpenLoopRateTolerance * r.offered_tps,
            "open loop: achieved rate below 95% of offered");
  r.driver_seconds = Seconds(last_handed - t0);
  topo.Stop();
  return r;
}

double ServedSetupOnce(const ServedParams& p,
                       const std::vector<std::vector<Tuple>>& inputs,
                       Ledger& ledger) {
  const auto start = Clock::now();
  Topology topo;
  if (Status st = StartTopology(p, &topo); !st.ok()) {
    ledger.Op(false, "start topology: " + st.ToString());
    return Seconds(Clock::now() - start);
  }
  SpanRecorder off(false);
  for (uint32_t w = 0; w < p.workers; ++w) {
    const size_t n = std::min<size_t>(inputs[w].size(), p.tick_tuples);
    for (size_t i = 0; i < n; ++i) {
      topo.drivers[w]->Insert(inputs[w][i].x, inputs[w][i].y);
    }
    Tick t;
    PublishTick(*topo.drivers[w], *topo.publishers[w], t, off, ledger);
  }
  return Seconds(Clock::now() - start);
}

// ---------------------------------------------------------------------------
// Layer probe (traced run): the core, io, service and relay layers' public
// functions called directly on the workload's input, single-threaded.
// ---------------------------------------------------------------------------

/// \brief Calls `f` `reps` times, recording each call as a span `name`.
template <typename F>
void Repeat(SpanRecorder& rec, const char* name, int reps, F&& f) {
  for (int i = 0; i < reps; ++i) {
    const auto a = Clock::now();
    f();
    rec.Add(name, a, Clock::now());
  }
}

void ProbeLayers(const KindConfig& kind, const std::vector<Tuple>& input,
                 SpanRecorder& rec, std::map<std::string, double>& counts,
                 Ledger& ledger) {
  const size_t n = std::min<size_t>(input.size(), size_t{1} << 20);
  const std::span<const Tuple> all(input.data(), n);
  AnySummary a = MakeOrDie(kind);
  Repeat(rec, "core.insert_batch", 1, [&] { a.InsertBatch(all); });
  counts["core.insert_batch.tuples"] = static_cast<double>(n);
  Repeat(rec, "core.clone", 5, [&] { AnySummary c = a.Clone(); });
  AnySummary half = MakeOrDie(kind);
  half.InsertBatch(all.subspan(n / 2));
  for (int i = 0; i < 3; ++i) {
    AnySummary c = a.Clone();
    Repeat(rec, "core.merge", 1, [&] {
      ledger.Op(c.MergeFrom(half).ok(), "probe: MergeFrom");
    });
  }
  for (int i = 0; i < 5; ++i) {
    for (uint64_t c : Cutoffs()) {
      Repeat(rec, "core.query", 1, [&] { (void)a.Query(c); });
    }
  }
  counts["core.state_bytes"] = static_cast<double>(a.SizeBytes());

  std::string blob;
  Repeat(rec, "io.serialize", 3, [&] {
    blob.clear();
    (void)a.Serialize(&blob);
  });
  const auto bytes = std::as_bytes(std::span(blob.data(), blob.size()));
  Repeat(rec, "io.deserialize", 3, [&] {
    ledger.Op(AnySummary::Deserialize(bytes).ok(), "probe: Deserialize");
  });
  counts["io.blob_bytes"] = static_cast<double>(blob.size());

  // Service: the blob published to a flat reducer over loopback.
  const svc::ReducerOptions ro = ReducerOptionsFor(kind);
  auto root = svc::SnapshotReducer::Start(ro);
  ledger.Op(root.ok(), "probe: reducer start");
  if (!root.ok()) return;
  {
    svc::PublisherOptions po;
    po.port = root.value()->port();
    svc::ShardPublisher publisher(po);
    for (uint64_t e = 1; e <= 15; ++e) {
      Repeat(rec, "service.publish", 1, [&] {
        ledger.Op(publisher.Publish(0, e, blob).ok(), "probe: publish");
      });
    }
    const uint64_t c = Cutoffs().back();
    Repeat(rec, "service.answer", 11, [&] { (void)root.value()->Answer(c); });
    Repeat(rec, "service.merged_root", 11,
           [&] { (void)root.value()->MergedRoot(); });
    Repeat(rec, "service.query_rtt", 11, [&] {
      ledger.Op(svc::QueryServed("127.0.0.1", po.port, c).ok(),
                "probe: QueryServed");
    });
    const svc::ReducerStats st = root.value()->Stats();
    counts["service.accepted"] = static_cast<double>(st.accepted);
    counts["service.duplicate"] = static_cast<double>(st.duplicate);
    counts["service.rejected"] = static_cast<double>(st.rejected);
    counts["service.bad_frames"] = static_cast<double>(st.bad_frames);
  }
  root.value()->Shutdown();

  // Relay: leaf ack at the relay -> visible at the relay -> visible in the
  // root's answers (which waits for the relay's next poll).
  auto top = svc::SnapshotReducer::Start(ro);
  ledger.Op(top.ok(), "probe: root start");
  if (!top.ok()) return;
  svc::RelayOptions rl;
  rl.reducer = ro;
  rl.upstream.port = top.value()->port();
  rl.upstream.worker_id = kRelayId;
  auto relay = svc::RelayNode::Start(rl);
  ledger.Op(relay.ok(), "probe: relay start");
  if (relay.ok()) {
    svc::PublisherOptions po;
    po.port = relay.value()->port();
    svc::ShardPublisher publisher(po);
    for (uint64_t e = 1; e <= 5; ++e) {
      ledger.Op(publisher.Publish(0, e, blob).ok(), "probe: relay publish");
      const auto acked = Clock::now();
      Tick want;
      want.epochs = {e};
      auto wait_for = [&](svc::SnapshotReducer& reducer) {
        while (Clock::now() - acked < std::chrono::seconds(5)) {
          if (Covers(reducer.Answer(Cutoffs().back()).epochs, want)) {
            return true;
          }
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        return false;
      };
      const bool at_relay = wait_for(relay.value()->reducer());
      const auto relay_seen = Clock::now();
      const bool at_root = at_relay && wait_for(*top.value());
      const auto root_seen = Clock::now();
      ledger.Op(at_root, "probe: relay hop reached the root");
      const uint64_t hop = rec.Add("relay.hop", acked, root_seen);
      rec.Add("relay.to_relay", acked, relay_seen, hop);
      rec.Add("relay.to_root", relay_seen, root_seen, hop);
    }
    counts["relay.republishes"] =
        static_cast<double>(relay.value()->republishes());
    (void)relay.value()->Shutdown();
  }
  top.value()->Shutdown();
}

// ---------------------------------------------------------------------------
// Workload table and metric assembly
// ---------------------------------------------------------------------------

struct Workload {
  KindConfig kind;
  bool served;
  IngestParams ingest;
  ServedParams serve;
};

// Rates. serve_f2 publishes every 5000 tuples, castream_served's default
// tick. With that tick one worker sustains about 198k tuples/s on the
// reference host (4 vCPU AMD EPYC VM): offered 300k, it achieved 197.5k and
// fell ever further behind. serve_f2 offers half of that, 100k tuples/s,
// so every tick (about 22 ms of flush, serialize and publish for two
// 3.5 MB blobs) ends well before the next is due. The readers run at 200
// q/s, one query per 5 ms: the served client's wait adds at most 5 ms to a
// visibility of about 25 ms, and the ingest_uniform reader, at about 60
// queries per 0.3 s round, keeps copy-on-publish busy throughout. relay_chh
// (not listed) ticks every 1000 tuples so its blobs stay at a few KB.
Workload WorkloadFor(const std::string& name) {
  Workload w{F2Kind(), false, {}, {}};
  if (name == "ingest_zipf") {
    w.ingest = {Shape::kZipfFewY, size_t{2} << 20, 0.0, 64};
  } else if (name == "ingest_uniform") {
    w.ingest = {Shape::kUniform, size_t{1} << 20, kQueryRate, 0};
  } else if (name == "serve_f2") {
    w.served = true;
    w.serve = {F2Kind(), Shape::kUniform, 1, 100000.0, 5000, false};
  } else {  // relay_chh
    w.kind = ChhKind();
    w.served = true;
    w.serve = {ChhKind(), Shape::kZipfAnyY, 2, 50000.0, 1000, true};
  }
  return w;
}

void PutLatency(std::map<std::string, double>& report, const std::string& key,
                const std::vector<double>& samples) {
  const LatencySummary s = Summarize(samples);
  report[key + "_p50_ms"] = s.p50;
  report[key + "_p99_ms"] = s.p99;
  report[key + "_count"] = static_cast<double>(s.count);
  report[key + "_tail_pct"] = s.tail_pct;
  report[key + "_tail_ms"] = s.tail;
}

/// \brief The end-to-end numbers of a pass: the gated ones (returned) and
/// the workload-specific ones (added to `report` under `prefix`).
std::map<std::string, double> EndToEnd(const PassResult& r,
                                       std::map<std::string, double>& report,
                                       const std::string& prefix) {
  std::map<std::string, double> m;
  m["ingest_tps"] = r.ingest_tps;
  m["query_p50_ms"] = Median(r.query_ms);
  PutLatency(report, prefix + "query", r.query_ms);
  if (!r.tps_samples.empty()) {
    report[prefix + "ingest_rounds"] =
        static_cast<double>(r.tps_samples.size());
  }
  if (r.served) {
    PutLatency(report, prefix + "served_query", r.served_query_ms);
    PutLatency(report, prefix + "visible", r.visible_ms);
    PutLatency(report, prefix + "gen_lag", r.gen_lag_ms);
    report[prefix + "wire_bytes_per_tuple"] =
        r.tuples ? r.wire_bytes / static_cast<double>(r.tuples) : 0.0;
    report[prefix + "offered_tps"] = r.offered_tps;
    report[prefix + "worker_blob_bytes_mean"] =
        r.worker_publishes ? r.worker_bytes /
                                 static_cast<double>(r.worker_publishes)
                           : 0.0;
  }
  return m;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// \brief The per-layer metrics from a traced pass: call
/// durations from the pass's spans where the workload exercises the layer
/// itself, otherwise from the probe's spans.
std::map<std::string, double> PerLayer(const PassResult& t,
                                       const SpanRecorder& run,
                                       const SpanRecorder& probe,
                                       const std::map<std::string, double>& c) {
  std::map<std::string, double> m;
  auto count = [&c](const std::string& key) {
    const auto it = c.find(key);
    return it == c.end() ? 0.0 : it->second;
  };
  auto sum = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return s;
  };
  m["driver.insert_ns_per_tuple"] =
      Ratio(sum(run.DurationsMs("driver.insert")) * 1e6,
            static_cast<double>(t.insert_tuples));
  m["driver.backlog_tuples_p99"] = Percentile(t.backlog, 99.0);
  m["driver.coalesce_ratio"] =
      t.coalesce_out ? Ratio(static_cast<double>(t.coalesce_in),
                             static_cast<double>(t.coalesce_out))
                     : 1.0;
  m["driver.flush_ms_p50"] = Median(run.DurationsMs("driver.flush"));
  m["driver.flush_ms_p99"] = Percentile(run.DurationsMs("driver.flush"), 99);
  m["driver.publish_ms_p50"] = Median(run.DurationsMs("driver.publish"));
  m["driver.publish_ms_p99"] =
      Percentile(run.DurationsMs("driver.publish"), 99);
  m["driver.snapshot_query_ms"] = Median(run.DurationsMs("driver.query"));
  m["driver.merges_per_query"] =
      Ratio(static_cast<double>(t.driver_merges),
            static_cast<double>(t.driver_queries));
  m["driver.publishes_per_s"] =
      Ratio(static_cast<double>(t.driver_publishes), t.driver_seconds);

  m["core.insert_ns_per_tuple"] =
      Ratio(sum(probe.DurationsMs("core.insert_batch")) * 1e6,
            count("core.insert_batch.tuples"));
  m["core.clone_ms"] = Median(probe.DurationsMs("core.clone"));
  m["core.merge_ms"] = Median(probe.DurationsMs("core.merge"));
  m["core.query_us"] = Median(probe.DurationsMs("core.query")) * 1000.0;
  m["core.state_bytes"] = count("core.state_bytes");
  m["io.serialize_ms"] = Median(probe.DurationsMs("io.serialize"));
  m["io.deserialize_ms"] = Median(probe.DurationsMs("io.deserialize"));
  m["io.blob_bytes"] = count("io.blob_bytes");

  const SpanRecorder& svc_src = t.served ? run : probe;
  m["service.publish_rtt_ms_p50"] =
      Median(svc_src.DurationsMs("service.publish"));
  m["service.publish_rtt_ms_p99"] =
      Percentile(svc_src.DurationsMs("service.publish"), 99);
  // Answer, QueryServed and MergedRoot on one unchanged table, so that
  // query_rtt - answer is the transport and connection cost alone.
  m["service.answer_ms"] = Median(probe.DurationsMs("service.answer"));
  m["service.query_rtt_ms"] = Median(probe.DurationsMs("service.query_rtt"));
  m["service.merged_root_ms"] = Median(probe.DurationsMs("service.merged_root"));
  for (const char* k : {"accepted", "duplicate", "rejected", "bad_frames"}) {
    m[std::string("service.") + k] = count(std::string("service.") + k);
  }
  if (t.served) {
    m["service.accepted"] = static_cast<double>(t.accepted);
    m["service.duplicate"] = static_cast<double>(t.duplicate);
    m["service.rejected"] = static_cast<double>(t.rejected);
    m["service.bad_frames"] = static_cast<double>(t.bad_frames);
  }
  const SpanRecorder& relay_src = t.relayed ? run : probe;
  m["relay.hop_ms"] = Median(relay_src.DurationsMs("relay.hop"));
  m["relay.republishes"] = t.relayed ? static_cast<double>(t.republishes)
                                     : count("relay.republishes");
  return m;
}

/// \brief Self time per layer (the span name's first component) over every
/// span of `rec` outside the visibility trees, which re-use intervals.
void PutSelfTimes(const SpanRecorder& rec, const std::string& prefix,
                  std::map<std::string, double>& report) {
  std::vector<Span> spans;
  for (const Span& s : rec.Snapshot()) {
    if (s.name.rfind("vis.", 0) != 0) spans.push_back(s);
  }
  const std::vector<double> self = SelfTimesMs(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string layer = spans[i].name.substr(0, spans[i].name.find('.'));
    report[prefix + layer + "_ms"] += self[i];
  }
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return name == "ingest_zipf" || name == "ingest_uniform" ||
         name == "serve_f2" || name == "relay_chh";
}

RunResult RunWorkload(const RunOptions& options) {
  RunResult out;
  const auto origin = Clock::now();
  Workload w = WorkloadFor(options.workload);
  w.ingest.seed = w.serve.seed = options.seed;
  Ledger ledger;
  const double pass_seconds =
      options.trace ? options.seconds / 2 : options.seconds;

  // Inputs and the oracle pre-pass, before any clock starts.
  std::vector<std::vector<Tuple>> inputs;
  if (w.served) {
    const auto per_worker = static_cast<size_t>(
        w.serve.rate_per_worker * (kWarmSeconds + pass_seconds));
    for (uint32_t k = 0; k < w.serve.workers; ++k) {
      inputs.push_back(
          MakeInput(w.serve.shape, per_worker, options.seed * 16 + k));
    }
  } else {
    inputs.push_back(MakeInput(w.ingest.shape, w.ingest.round_tuples,
                               options.seed * 16));
  }
  std::vector<const std::vector<Tuple>*> parts;
  for (const auto& in : inputs) parts.push_back(&in);
  const Oracle oracle = BuildOracle(parts, kChhPhi);
  double input_mib = 0;
  for (const auto& in : inputs) {
    input_mib += static_cast<double>(in.capacity() * sizeof(Tuple)) /
                 (1024.0 * 1024.0);
  }
  out.report["input_mb"] = input_mib;
  out.report["rss_rebased"] = RebaseRssHighWater() ? 1.0 : 0.0;

  // Set-up: the median of several cold set-ups.
  std::vector<double> setups;
  for (int i = 0; i < kSetupSamples; ++i) {
    setups.push_back(w.served ? ServedSetupOnce(w.serve, inputs, ledger)
                              : IngestSetupOnce(w.kind, inputs[0]));
  }
  out.report["setup_samples"] = static_cast<double>(setups.size());

  auto run_pass = [&](SpanRecorder& rec) {
    return w.served ? RunServedPass(w.serve, inputs, oracle, pass_seconds, rec,
                                    ledger)
                    : RunIngestPass(w.kind, w.ingest, inputs[0], oracle,
                                    pass_seconds, rec, ledger);
  };

  SpanRecorder untraced(false);
  if (!options.trace) {
    const PassResult r = run_pass(untraced);
    out.metrics = EndToEnd(r, out.report, "");
    out.metrics["setup_s"] = Median(setups);
    // The high-water mark since the rebase, less the input buffers, which
    // stay resident for the whole run but are the benchmark's, not the
    // program's.
    out.metrics["peak_rss_mb"] =
        static_cast<double>(ProcStatusKiB("VmHWM:")) / 1024.0 - input_mib;
  } else {
    // Half the time untraced, half traced: the difference is the tracing
    // overhead; the traced half gives the per-layer numbers.
    const PassResult u = run_pass(untraced);
    SpanRecorder traced(true);
    const PassResult t = run_pass(traced);
    std::map<std::string, double> ignored;
    const auto eu = EndToEnd(u, ignored, "");
    const auto et = EndToEnd(t, out.report, "traced.");
    double overhead = 0.0;
    for (const char* key : {"ingest_tps", "query_p50_ms"}) {
      const double rel = Ratio(et.at(key), eu.at(key)) - 1.0;
      out.report[std::string("trace.overhead.") + key] = rel;
      overhead = std::max(overhead, std::fabs(rel));
    }
    SpanRecorder probe(true);
    std::map<std::string, double> counts;
    ProbeLayers(w.kind, inputs[0], probe, counts, ledger);
    out.metrics = PerLayer(t, traced, probe, counts);
    out.metrics["trace.overhead_frac"] = overhead;
    PutSelfTimes(traced, "self.run.", out.report);
    PutSelfTimes(probe, "self.probe.", out.report);
    if (!t.stage_self_ms.empty()) {
      // The ROADMAP self-check: the stages' median self times along the
      // visibility path must add up to visible_p50_ms, or a stage is
      // missing. The client wait is reported as a share, since it depends
      // on the client's query rate rather than on the program.
      for (const auto& [name, v] : t.stage_self_ms) {
        out.report["stage." + name + "_p50_ms"] = Median(v);
      }
      out.report["stage.unaccounted_p50_ms"] = Median(t.unaccounted_ms);
      const StageSum check =
          CheckStageSum(t.stage_self_ms, t.visible_ms, kStageSumTolerance);
      out.report["stage.sum_p50_ms"] = check.sum_ms;
      out.report["stage.client.wait_share"] =
          Ratio(Median(t.stage_self_ms.at("client.wait")), check.visible_ms);
      ledger.Op(check.ok,
                "trace: visibility stage medians do not sum to "
                "visible_p50_ms");
    }
    if (!options.trace_out.empty()) {
      if (!traced.WriteTsv(options.trace_out, origin) ||
          !probe.WriteTsv(options.trace_out + ".probe", origin)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     options.trace_out.c_str());
      }
    }
  }

  out.attempted = ledger.attempted();
  out.failed = ledger.failed();
  out.errors = ledger.errors();
  out.correct = out.failed == 0;
  out.report["failed_ops_frac"] =
      Ratio(static_cast<double>(out.failed),
            static_cast<double>(out.attempted));
  return out;
}

}  // namespace perfbench
