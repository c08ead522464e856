// Sharded multi-stream ingest driver (the ROADMAP's first step toward
// serving one logical stream at multi-core / multi-node scale).
//
// The paper's summaries are mergeable: two instances built over the same
// configuration and hash family combine into a summary of the union stream
// (Status MergeFrom on every summary type). The driver exploits that by
// hash-partitioning the stream across S shard summaries *by item identifier
// x*, so every occurrence of one x lands on exactly one shard — the
// partition under which frequency-based aggregates (F2, Fk, heavy hitters)
// and identifier-based ones (F0, rarity) decompose exactly: merging the
// shard summaries answers over the whole stream with the same guarantees as
// one summary would.
//
// Dataflow:
//   writers (any number, each with its own Writer handle)
//     -> per-shard bounded batch queues (backpressure, order-preserving)
//       -> one ingest thread per shard, feeding Summary::InsertBatch
//          and publishing an epoch-stamped snapshot every K batches
//         -> query-time merge of the published snapshots.
//
// One query entry point — Query(cutoff, QueryOptions) returning
// QueryAnswer{estimate, epochs}, plus Summarize(QueryOptions) for the
// merged summary itself — serves both execution modes through one merge
// engine:
//
//   * QueryMode::kBlocking: Flush() first — drain the queues, republish
//     every changed shard — then merge the snapshots. The answer covers
//     every tuple handed to the driver before the call.
//   * QueryMode::kSnapshot: merge the snapshots as they are. Never touches
//     the shard queues or the live summaries, so it cannot block behind
//     backpressured writers or a slow ingest batch; the answer is a valid
//     whole-stream answer that is stale by at most the unpublished tail of
//     each shard (bounded by snapshot_interval batches plus whatever sits
//     in the queues), and the returned per-shard epoch vector says exactly
//     which publishes it covers — the same staleness observability TCP
//     clients of the continuous service get in ServedAnswer. The first
//     snapshot-mode query arms the ingest threads' interval publication —
//     pure-ingest pipelines never pay the copy-on-publish cost.
//
// The merge engine (src/driver/merge_cache.h, shared with the
// cross-process reducer) memoizes merges keyed by snapshot epochs in a
// binary merge tree: a change confined to one shard re-merges only that
// leaf's root path — O(log S) MergeFrom calls — and a repeated query over
// a quiescent driver reuses the cached root with zero merges.
//
// The driver is written against the unified Summary protocol: any type
// modeling ShardableSummary works, including the type-erased
// castream::AnySummary (one driver instantiation for every registry kind),
// and SerializeShard snapshots a shard in the src/io wire format — the
// in-process end of the cross-process sharding flow that
// examples/castream_shardctl.cpp demonstrates between real processes.
//
// Determinism: with a single writer, each shard receives its sub-stream in
// arrival order (queues are FIFO and batched ingest is exactly equivalent to
// one-at-a-time ingest), so the driver's answers are bit-for-bit equal to
// partitioning the stream by ShardOf, feeding S summaries serially, and
// folding them in tree order — asserted by
// tests/sharded_equivalence_test.cc. With several concurrent writers the
// per-shard interleaving (and thus bucket-closing timing) is
// scheduling-dependent, but every interleaving is a valid stream order and
// keeps the summaries' (eps, delta) guarantees.
#ifndef CASTREAM_DRIVER_SHARDED_DRIVER_H_
#define CASTREAM_DRIVER_SHARDED_DRIVER_H_

#include <atomic>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/driver/bounded_queue.h"
#include "src/driver/hot_key_buffer.h"
#include "src/driver/merge_cache.h"
#include "src/hash/hash_family.h"
#include "src/stream/types.h"

namespace castream {

/// \brief A summary the driver can shard: batch ingest plus in-family merge.
/// Every summary modeling the unified Summary protocol qualifies — including
/// the type-erased castream::AnySummary, so one driver instantiation serves
/// whatever kind the registry built.
template <typename S>
concept ShardableSummary = requires(S s, const S& cs) {
  s.InsertBatch(std::span<const Tuple>{});
  // The shard queues carry weighted rows (so the hot-key coalescing front
  // end can ship multiplicities); weight-1 rows are exactly unit inserts.
  s.InsertBatch(std::span<const WeightedTuple>{});
  { s.MergeFrom(cs) } -> std::same_as<Status>;
};

/// \brief Deep-copyable via an explicit Clone() (the move-only AnySummary's
/// spelling of a copy).
template <typename S>
concept CloneableSummary = requires(const S& cs) {
  { cs.Clone() } -> std::same_as<S>;
};

/// \brief What copy-on-publish snapshots need: a copy that behaves as a
/// deep copy, either the ordinary copy constructor (all concrete summary
/// types) or Clone() (AnySummary).
template <typename S>
concept SnapshotableSummary =
    ShardableSummary<S> && (std::copy_constructible<S> || CloneableSummary<S>);

/// \brief Summaries that additionally model the durable half of the Summary
/// protocol (Serialize into the versioned wire format of src/io).
template <typename S>
concept SerializableSummary = ShardableSummary<S> &&
    requires(const S& cs, std::string* out) {
      { cs.Serialize(out) } -> std::same_as<Status>;
    };

struct ShardedDriverOptions {
  /// Shard (and ingest thread) count; clamped to >= 1.
  uint32_t shards = 4;
  /// Tuples buffered per shard before a batch is enqueued. Larger batches
  /// amortize queue synchronization and keep the per-shard trees
  /// cache-resident inside InsertBatch.
  size_t batch_size = 1024;
  /// Batches buffered per shard queue before writers block (backpressure).
  size_t queue_capacity = 8;
  /// Each shard's ingest thread republishes its snapshot after this many
  /// batches (clamped to >= 1). The knob trades snapshot staleness against
  /// publish (copy) overhead on the ingest threads: while a shard is
  /// actively ingesting, a snapshot query lags it by at most this many
  /// batches plus the queue depth, and each publish costs one summary copy
  /// amortized over the interval. A shard that goes *idle* with an
  /// unpublished tail is published by the snapshot query itself (try-lock,
  /// still non-blocking; throttled to kIdleNudgePeriod), so the tail
  /// becomes visible within ~100ms and a query rather than waiting on a
  /// batch that may never come. All snapshot publication (interval, Flush)
  /// is armed by the first snapshot query, so pure-ingest pipelines never
  /// pay for copies nobody reads; the blocking query path republishes on
  /// its own, so blocking queries are exact regardless of the cadence or
  /// arming.
  size_t snapshot_interval_batches = 8;
  /// Seed of the x -> shard hash. All participants of one logical stream
  /// must agree on it (it defines the partition).
  uint64_t shard_seed = 0x5ca1ab1e0ddba11ULL;
  /// Per-writer hot-key pre-aggregation (src/driver/hot_key_buffer.h):
  /// nonzero gives every Writer a coalescing table of this many slots
  /// (rounded up to a power of two), so repeats of one (x, y) reach the
  /// shard queues as a single weighted row. 0 (the default) disables it,
  /// preserving the bit-for-bit single-writer equivalence contract —
  /// coalescing reorders emissions, which is answer-valid (any emission
  /// order is a stream order) but not bit-identical.
  size_t writer_coalesce_slots = 0;
};

/// \brief How a query observes the stream.
enum class QueryMode : uint8_t {
  /// Flush + drain + republish before merging: exact as of the call, but
  /// waits on the shard queues (backpressured writers stall it).
  kBlocking,
  /// Merge the published snapshots as they are: never waits on ingest;
  /// stale by at most each shard's unpublished tail, and the answer's
  /// epoch vector reports exactly which publishes it covers.
  kSnapshot,
};

/// \brief Per-query knobs for the unified query entry points. The default
/// is exact-as-of-call (blocking) answers.
struct QueryOptions {
  QueryMode mode = QueryMode::kBlocking;
};

/// \brief A point-query result carrying its provenance: `epochs[s]` is the
/// publication epoch of the shard-s snapshot the estimate was merged from
/// (0 = never published, i.e. that shard contributed nothing yet). The
/// in-process mirror of the continuous service's ServedAnswer — snapshot
/// callers read staleness off it instead of flying blind.
struct QueryAnswer {
  double estimate = 0.0;
  std::vector<uint64_t> epochs;
};

/// \brief Runs S identically-configured summaries as shards of one logical
/// stream, with a thread-per-shard ingest loop and query-time merging of
/// epoch-stamped shard snapshots.
///
/// `make_summary` must produce summaries that are mergeable with each other
/// (same options and seed — family identity is value-based, so independent
/// calls with the same seed are compatible). The driver calls it S times for
/// the shards and once for the merge engine's zero-stream answer.
template <SnapshotableSummary Summary>
class ShardedDriver {
 public:
  ShardedDriver(const ShardedDriverOptions& options,
                std::function<Summary()> make_summary)
      : options_(Clamp(options)),
        make_summary_(std::move(make_summary)),
        // this-capture is stable: the driver is neither copyable nor
        // movable, and the cache member outlives no part of *this.
        merge_cache_([this] { return make_summary_(); }) {
    shards_.reserve(options_.shards);
    for (uint32_t s = 0; s < options_.shards; ++s) {
      shards_.push_back(std::make_unique<Shard>(make_summary_(),
                                                options_.queue_capacity));
    }
    for (auto& shard : shards_) {
      Shard* sp = shard.get();
      shard->worker = std::thread([this, sp] {
        size_t since_publish = 0;
        while (auto batch = sp->queue.Pop()) {
          {
            // Per-batch summary lock: snapshot publishes and shard
            // serializations taken while ingest is running observe the
            // shard at a batch boundary (a consistent summary state)
            // instead of racing mid-insert.
            std::lock_guard<std::mutex> lock(sp->summary_mu);
            sp->summary.InsertBatch(std::span<const WeightedTuple>(*batch));
            ++sp->batches_ingested;
          }
          sp->processed.fetch_add(batch->size(), std::memory_order_relaxed);
          ReturnBuffer(std::move(*batch));
          // Copy-on-publish only once someone has asked for snapshots
          // (~20% of ingest throughput at the default interval; a stream
          // that is never snapshot-queried shouldn't pay it). The counter
          // keeps running while unarmed so the first armed batch
          // publishes immediately.
          if (++since_publish >= options_.snapshot_interval_batches &&
              snapshots_armed_.load(std::memory_order_relaxed)) {
            PublishShard(*sp);
            since_publish = 0;
          }
          // Publish-before-Ack: once WaitIdle() returns, every worker-side
          // publish owed for acknowledged batches has completed too.
          sp->queue.AckDone();
        }
      });
    }
    default_writer_ = std::make_unique<Writer>(*this);
  }

  ~ShardedDriver() {
    default_writer_->Flush();
    for (auto& shard : shards_) shard->queue.Close();
    for (auto& shard : shards_) {
      if (shard->worker.joinable()) shard->worker.join();
    }
  }

  ShardedDriver(const ShardedDriver&) = delete;
  ShardedDriver& operator=(const ShardedDriver&) = delete;

  /// \brief A producer handle with private per-shard batch buffers. One
  /// Writer must be used by one thread at a time; any number of Writers may
  /// feed the same driver concurrently (the shard queues are thread-safe).
  class Writer {
   public:
    explicit Writer(ShardedDriver& driver)
        : driver_(driver), pending_(driver.shards_.size()),
          coalescer_(driver.options_.writer_coalesce_slots) {
      for (auto& buf : pending_) buf.reserve(driver_.options_.batch_size);
    }

    void Insert(uint64_t x, uint64_t y) { Insert(x, y, 1); }
    void Insert(const Tuple& t) { Insert(t.x, t.y, 1); }
    void Insert(const WeightedTuple& t) { Insert(t.x, t.y, t.weight); }

    /// \brief Weighted insert. With coalescing enabled the row may be parked
    /// in the hot-key table and emitted later (at eviction, or at Flush);
    /// otherwise it is staged for its shard immediately.
    void Insert(uint64_t x, uint64_t y, int64_t weight) {
      if (coalescer_.enabled()) {
        coalescer_.Insert(x, y, weight,
                          [this](const WeightedTuple& t) { Stage(t); });
      } else {
        Stage(WeightedTuple{x, y, weight});
      }
    }

    void InsertBatch(std::span<const Tuple> batch) {
      for (const Tuple& t : batch) Insert(t);
    }
    void InsertBatch(std::span<const WeightedTuple> batch) {
      for (const WeightedTuple& t : batch) Insert(t);
    }

    /// \brief Drains the hot-key table, then hands every partially-filled
    /// buffer to the shard queues. Does not wait for processing; call the
    /// driver's Flush/WaitIdle for that.
    void Flush() {
      coalescer_.Drain([this](const WeightedTuple& t) { Stage(t); });
      for (uint32_t s = 0; s < pending_.size(); ++s) {
        if (!pending_[s].empty()) driver_.Dispatch(s, pending_[s]);
      }
    }

    /// \brief This writer's hot-key coalescing stats (all zero when
    /// writer_coalesce_slots == 0).
    const HotKeyBuffer& coalescer() const { return coalescer_; }

   private:
    void Stage(const WeightedTuple& t) {
      const uint32_t s = driver_.ShardOf(t.x);
      pending_[s].push_back(t);
      if (pending_[s].size() >= driver_.options_.batch_size) {
        driver_.Dispatch(s, pending_[s]);
      }
    }

    ShardedDriver& driver_;
    std::vector<std::vector<WeightedTuple>> pending_;
    HotKeyBuffer coalescer_;
  };

  Writer MakeWriter() { return Writer(*this); }

  // Single-producer convenience API, backed by a driver-owned Writer. Not
  // thread-safe against itself; concurrent producers use MakeWriter.
  void Insert(uint64_t x, uint64_t y) { default_writer_->Insert(x, y); }
  void Insert(const Tuple& t) { default_writer_->Insert(t); }
  void Insert(uint64_t x, uint64_t y, int64_t weight) {
    default_writer_->Insert(x, y, weight);
  }
  void Insert(const WeightedTuple& t) { default_writer_->Insert(t); }
  void InsertBatch(std::span<const Tuple> batch) {
    default_writer_->InsertBatch(batch);
  }
  void InsertBatch(std::span<const WeightedTuple> batch) {
    default_writer_->InsertBatch(batch);
  }

  /// \brief Pushes the driver-owned writer's partial batches, blocks until
  /// every enqueued batch (from all writers) has been ingested, then — once
  /// snapshot serving is armed — republishes every changed shard, so
  /// snapshot queries answer over everything flushed. An unarmed driver
  /// skips the publish copies (nobody reads them; pure-ingest pipelines
  /// Flush too); the blocking query path publishes explicitly, so its
  /// answers are exact either way.
  void Flush() {
    default_writer_->Flush();
    WaitIdle();
    if (snapshots_armed_.load(std::memory_order_relaxed)) PublishSnapshots();
  }

 private:
  /// \brief The blocking query paths' drain: like Flush(), but always
  /// publishes (exactly once) so answers are exact-as-of-call on unarmed
  /// drivers too.
  void FlushAndPublish() {
    default_writer_->Flush();
    WaitIdle();
    PublishSnapshots();
  }

 public:

  /// \brief Blocks until all shard queues are drained and acknowledged.
  /// External Writers must Flush() themselves first — the driver cannot see
  /// their private buffers.
  void WaitIdle() {
    for (auto& shard : shards_) shard->queue.WaitIdle();
  }

  /// \brief Republishes the snapshot of every shard whose summary changed
  /// since its last publish (no-op, and no epoch bump, for unchanged
  /// shards). Blocks on in-flight ingest batches — the blocking path's
  /// tool; snapshot-mode queries never call it.
  void PublishSnapshots() {
    for (auto& shard : shards_) PublishShard(*shard);
  }

  /// \brief The one whole-stream summarization entry point both query
  /// modes funnel through. kBlocking flushes + republishes first (exact as
  /// of the call); kSnapshot merges the published snapshots as they are
  /// (never waits on ingest) — the first snapshot-mode call arms the
  /// ingest threads' interval publication, and every snapshot-mode call
  /// nudges idle shards' unpublished tails out via try-lock (a busy or
  /// wedged ingest thread still cannot block it). The result is shared and
  /// immutable; shards are left untouched, so ingest continues and the
  /// call can be repeated — a repeat with no intervening ingest performs
  /// zero shard merges (the epoch-keyed memo is hit), and a change
  /// confined to one shard re-merges only that leaf's O(log S) root path.
  /// A driver with no published snapshots answers as a fresh summary (the
  /// defined zero-stream state). When `epochs` is non-null it receives
  /// the per-shard snapshot epochs the merge covered (0 = never
  /// published).
  Result<std::shared_ptr<const Summary>> Summarize(
      const QueryOptions& options = {},
      std::vector<uint64_t>* epochs = nullptr) {
    if (options.mode == QueryMode::kBlocking) {
      // The blocking path republishes on its own and does not arm —
      // interval copies would be waste for callers who always flush.
      FlushAndPublish();
    } else {
      // Arm worker-side interval publication: from now on the ingest
      // threads keep the snapshots fresh.
      const bool first_call =
          !snapshots_armed_.exchange(true, std::memory_order_relaxed);
      // Interval publication only runs when batches flow, so a shard whose
      // ingest has gone quiet (or that ingested everything before the
      // first snapshot query) would otherwise hide its unpublished tail
      // forever. Publish such idle shards from here.
      TryPublishIdleShards(first_call);
    }
    return MergeSnapshots(epochs);
  }

 private:
  /// \brief Publishes the unpublished tail of every *idle* shard: one
  /// whose worker is not mid-batch (summary_mu try-locks) and that made no
  /// ingest progress since the previous nudge (so no interval publish is
  /// coming). Throttled to one pass per kIdleNudgePeriod: without the
  /// throttle, polling faster than batches arrive would judge a trickling
  /// shard "idle" between every batch and publish per batch, defeating the
  /// interval amortization. `force` skips the throttle and treats every
  /// reachable stale shard as idle — used on the arming call, where data
  /// ingested before any snapshot query would otherwise stay invisible
  /// until the next batch or Flush. Never blocks — shard locks are
  /// try-locked (a held one means an active worker, whose own cadence
  /// covers it) and the pass runs under its own nudge_mu_, not merge_mu_,
  /// so concurrent snapshot queries merge right past an in-flight nudge's
  /// copies.
  void TryPublishIdleShards(bool force) {
    std::unique_lock<std::mutex> nlock(nudge_mu_, std::defer_lock);
    if (force) {
      // The arming pass is one-shot (snapshots_armed_ flips once): if it
      // were dropped because a concurrent non-force nudge holds the lock,
      // pre-arming data could stay unpublished for a full throttle period.
      // Waiting here is still queue-independent — the holder is another
      // query thread doing bounded copy work, never ingest.
      nlock.lock();
    } else if (!nlock.try_lock()) {
      return;  // a concurrent nudge is already at it
    }
    const auto now = std::chrono::steady_clock::now();
    if (!force && now - last_nudge_ < kIdleNudgePeriod) return;
    last_nudge_ = now;
    if (last_seen_batches_.size() != shards_.size()) {
      last_seen_batches_.assign(shards_.size(), 0);
    }
    for (uint32_t s = 0; s < shards_.size(); ++s) {
      Shard& shard = *shards_[s];
      std::unique_lock<std::mutex> lock(shard.summary_mu, std::try_to_lock);
      if (!lock.owns_lock()) continue;  // busy worker: interval cadence
      const uint64_t batches = shard.batches_ingested;
      const uint64_t seen = last_seen_batches_[s];
      last_seen_batches_[s] = batches;
      if (batches == 0) continue;
      if (!force && batches != seen) continue;  // still making progress
      PublishTailLocked(shard, batches);
    }
  }

  /// \brief The merge engine both query modes share: gather published
  /// snapshots, then fold them through the epoch-keyed MergeCache
  /// (src/driver/merge_cache.h — the same engine the cross-process reducer
  /// runs). `epochs_out`, when non-null, receives the per-shard epochs the
  /// merge covered.
  Result<std::shared_ptr<const Summary>> MergeSnapshots(
      std::vector<uint64_t>* epochs_out) {
    const uint32_t count = shard_count();
    std::vector<std::shared_ptr<const Summary>> snaps(count);
    std::vector<uint64_t> epochs(count);
    for (uint32_t s = 0; s < count; ++s) {
      std::lock_guard<std::mutex> lock(shards_[s]->snapshot_mu);
      snaps[s] = shards_[s]->snapshot;
      epochs[s] = shards_[s]->snapshot_epoch;
    }
    if (epochs_out != nullptr) *epochs_out = epochs;
    return merge_cache_.Merge(snaps, epochs);
  }

 public:
  /// \brief Drops the memoized tree merges, forcing the next Summarize or
  /// Query to rebuild from scratch. Exists so tests can pin "incremental
  /// reuse answers == from-scratch answers"; never needed for correctness.
  void InvalidateSnapshotCache() { merge_cache_.Invalidate(); }

  /// \brief Serializes shard s's summary (the versioned wire format of
  /// src/io) — the unit a cross-process deployment ships to a reducer.
  /// Call Flush()/WaitIdle() first for a batch-complete snapshot; the shard
  /// keeps ingesting afterwards. Available when the summary models the
  /// durable protocol (all registry kinds and AnySummary do).
  [[nodiscard]] Status SerializeShard(uint32_t s, std::string* out)
    requires SerializableSummary<Summary>
  {
    if (s >= shards_.size()) {
      return Status::InvalidArgument(
          "ShardedDriver::SerializeShard: shard index out of range");
    }
    std::lock_guard<std::mutex> lock(shards_[s]->summary_mu);
    return shards_[s]->summary.Serialize(out);
  }

  /// \brief Serializes shard s's last *published* snapshot and reports the
  /// epoch it was published at — the consistent (epoch, blob) pair the
  /// continuous service ships (SerializeShard reads the live summary, whose
  /// content keeps moving past any epoch). Never blocks on ingest: the
  /// snapshot pointer is grabbed under the cheap snapshot lock and encoded
  /// outside it. A shard that has never published yields epoch 0 and an
  /// untouched *out (the defined "nothing to ship yet" state).
  [[nodiscard]] Status SerializeShardSnapshot(uint32_t s, std::string* out,
                                              uint64_t* epoch)
    requires SerializableSummary<Summary>
  {
    if (s >= shards_.size()) {
      return Status::InvalidArgument(
          "ShardedDriver::SerializeShardSnapshot: shard index out of range");
    }
    std::shared_ptr<const Summary> snap;
    {
      std::lock_guard<std::mutex> lock(shards_[s]->snapshot_mu);
      snap = shards_[s]->snapshot;
      *epoch = shards_[s]->snapshot_epoch;
    }
    if (snap == nullptr) return Status::OK();  // epoch 0: never published
    return snap->Serialize(out);
  }

  /// \brief The unified point query (summary types with a single-cutoff
  /// Query; instantiated only if used): summarize under `options`, query at
  /// cutoff c, and report the estimate together with the per-shard
  /// snapshot epochs it was computed from — the in-process twin of the
  /// continuous service's ServedAnswer. In kBlocking mode the epochs
  /// simply record the publishes the flush produced; in kSnapshot mode
  /// they are the staleness observable (compare against ShardEpochs() or a
  /// later answer's vector to see which shards have moved). A
  /// snapshot-mode query never waits on the shard queues or ingest
  /// threads: backpressured writers and a wedged ingest batch cannot stall
  /// it.
  Result<QueryAnswer> Query(uint64_t c, const QueryOptions& options = {}) {
    QueryAnswer answer;
    CASTREAM_ASSIGN_OR_RETURN(std::shared_ptr<const Summary> merged,
                              Summarize(options, &answer.epochs));
    CASTREAM_ASSIGN_OR_RETURN(answer.estimate, merged->Query(c));
    return answer;
  }

  /// \brief The shard an item identifier routes to (the partition function;
  /// tests use it to build serial oracles).
  uint32_t ShardOf(uint64_t x) const {
    return static_cast<uint32_t>(MixHash64(x, options_.shard_seed) %
                                 shards_.size());
  }

  uint32_t shard_count() const {
    return static_cast<uint32_t>(shards_.size());
  }

  /// \brief Tuples fully ingested by shard workers (excludes buffered ones).
  uint64_t tuples_processed() const {
    uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->processed.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// \brief Shard s's snapshot publication epoch: 0 until the first
  /// publish, +1 per publish, strictly monotone. Equal epochs imply equal
  /// snapshot contents.
  uint64_t shard_epoch(uint32_t s) const {
    std::lock_guard<std::mutex> lock(shards_[s]->snapshot_mu);
    return shards_[s]->snapshot_epoch;
  }

  /// \brief All shard epochs (see shard_epoch), for staleness diagnostics.
  std::vector<uint64_t> ShardEpochs() const {
    std::vector<uint64_t> epochs(shards_.size());
    for (uint32_t s = 0; s < shards_.size(); ++s) epochs[s] = shard_epoch(s);
    return epochs;
  }

  /// \brief Cumulative count of shard MergeFrom calls performed by the
  /// merge engine (both query modes). A repeated query with no intervening
  /// ingest adds zero — the regression tests' observable.
  uint64_t shard_merges_performed() const {
    return merge_cache_.merges_performed();
  }

 private:
  struct Shard {
    Summary summary;         // live; mutated only by the worker thread
    std::mutex summary_mu;   // held per batch by the worker, by publishes
    uint64_t batches_ingested = 0;  // guarded by summary_mu
    BoundedQueue<std::vector<WeightedTuple>> queue;
    std::thread worker;
    std::atomic<uint64_t> processed{0};

    // Published snapshot slot. Guarded by snapshot_mu, which is only ever
    // held for pointer/counter reads and swaps — never across a copy or a
    // merge — so snapshot readers cannot be blocked behind ingest.
    mutable std::mutex snapshot_mu;
    std::shared_ptr<const Summary> snapshot;  // null until first publish
    uint64_t snapshot_epoch = 0;
    uint64_t snapshot_batches = 0;  // batches_ingested at last publish

    Shard(Summary s, size_t queue_capacity)
        : summary(std::move(s)), queue(queue_capacity) {}
  };

  static ShardedDriverOptions Clamp(ShardedDriverOptions o) {
    if (o.shards == 0) o.shards = 1;
    if (o.batch_size == 0) o.batch_size = 1;
    if (o.queue_capacity == 0) o.queue_capacity = 1;
    if (o.snapshot_interval_batches == 0) o.snapshot_interval_batches = 1;
    return o;
  }

  /// \brief Publishes a fresh snapshot of `shard` if (and only if) its
  /// summary changed since the last publish. Called from the shard's own
  /// worker every snapshot_interval batches and from PublishSnapshots on
  /// the blocking path.
  void PublishShard(Shard& shard) {
    std::lock_guard<std::mutex> lock(shard.summary_mu);
    if (shard.batches_ingested == 0) return;  // nothing to say
    PublishTailLocked(shard, shard.batches_ingested);
  }

  /// \brief The one publish protocol (every publisher funnels through
  /// here; `shard.summary_mu` must be held, which serializes publishes of
  /// one shard): skip if a publish at >= batches already landed, else copy
  /// the summary, swap it into the snapshot slot, bump the epoch — so
  /// epochs bump exactly once per content change.
  void PublishTailLocked(Shard& shard, uint64_t batches) {
    {
      std::lock_guard<std::mutex> slock(shard.snapshot_mu);
      if (shard.snapshot_batches >= batches) return;  // already current
    }
    Summary copy = SummaryDeepCopy(shard.summary);
    std::lock_guard<std::mutex> slock(shard.snapshot_mu);
    shard.snapshot = std::make_shared<const Summary>(std::move(copy));
    ++shard.snapshot_epoch;
    shard.snapshot_batches = batches;
  }

  /// \brief Moves a full buffer into shard s's queue (blocking on
  /// backpressure) and leaves `buffer` empty with its capacity reusable.
  /// The replacement capacity comes from the batch pool — vectors the shard
  /// workers already ingested and returned — so steady-state dispatch
  /// performs no allocation (it used to heap-allocate a fresh
  /// batch_size-capacity vector per batch).
  void Dispatch(uint32_t s, std::vector<WeightedTuple>& buffer) {
    std::vector<WeightedTuple> batch = AcquireBuffer();
    batch.swap(buffer);
    shards_[s]->queue.Push(std::move(batch));
  }

  /// \brief A cleared buffer from the pool, or a freshly reserved one when
  /// the pool is empty (cold start, or more writers than pooled buffers).
  std::vector<WeightedTuple> AcquireBuffer() {
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      if (!buffer_pool_.empty()) {
        std::vector<WeightedTuple> b = std::move(buffer_pool_.back());
        buffer_pool_.pop_back();
        return b;
      }
    }
    std::vector<WeightedTuple> b;
    b.reserve(options_.batch_size);
    return b;
  }

  /// \brief Recycles an ingested batch's storage. Capped so a burst can
  /// never pin more than roughly the queues' worth of buffers.
  void ReturnBuffer(std::vector<WeightedTuple>&& b) {
    b.clear();
    std::lock_guard<std::mutex> lock(pool_mu_);
    if (buffer_pool_.size() < buffer_pool_cap_) {
      buffer_pool_.push_back(std::move(b));
    }
  }

  ShardedDriverOptions options_;
  std::function<Summary()> make_summary_;
  // The epoch-keyed merge engine (src/driver/merge_cache.h; also the
  // reducer's engine): O(log S) re-merges on single-shard change and
  // zero-merge repeat queries. Memory: the S published snapshots and the
  // tree's S-1 internal nodes share bucket counters copy-on-write — a
  // snapshot shares every bucket its live shard has not written since the
  // publish (closed buckets never are), and a node shares every bucket its
  // merge did not combine — so together they cost a fraction of one more
  // summary set rather than two. Callers can still drop the memo between
  // query bursts with InvalidateSnapshotCache.
  MergeCache<Summary> merge_cache_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<Writer> default_writer_;

  // Free list of batch vectors cycling writer -> queue -> worker -> pool.
  // Bounded by (queues full + one in flight per shard + one per dispatcher);
  // beyond that, returned buffers are simply freed.
  std::mutex pool_mu_;
  std::vector<std::vector<WeightedTuple>> buffer_pool_;
  const size_t buffer_pool_cap_ =
      options_.shards * (options_.queue_capacity + 2);

  /// Idle-shard nudge cadence: bounds the extra staleness of a shard whose
  /// ingest went quiet, and bounds nudge publish work to ~10 passes/s no
  /// matter how hot the query loop runs.
  static constexpr std::chrono::milliseconds kIdleNudgePeriod{100};

  // Idle-nudge state (guarded by nudge_mu_, deliberately separate from the
  // cache's own lock so a nudge pass doing summary copies never stalls
  // merges).
  std::mutex nudge_mu_;
  std::vector<uint64_t> last_seen_batches_;  // per-shard, for idle detection
  std::chrono::steady_clock::time_point last_nudge_{};
  // Set (permanently) by the first snapshot-mode Summarize/Query; gates the
  // ingest threads' interval publication.
  std::atomic<bool> snapshots_armed_{false};
};

}  // namespace castream

#endif  // CASTREAM_DRIVER_SHARDED_DRIVER_H_
