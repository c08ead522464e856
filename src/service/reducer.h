// The always-on reducer of the continuous aggregation service.
//
// Topology (the ROADMAP's "millions of users" shape — many writer
// processes, one always-on query tier):
//
//   worker 0: ShardedDriver ──┐  epoch-tagged SerializeShard blobs
//   worker 1: ShardedDriver ──┼──────────── TCP ────────────▶ SnapshotReducer
//   clients:  QueryServed  ───┘                                   │
//                              snapshot table (worker, shard) ──▶ MergeCache
//
// The reducer maintains one slot per (worker, shard): the latest decoded
// snapshot, the worker-declared epoch, and the publisher's session tag.
// Publishes are idempotent and restart-safe (see src/net/frame.h for the
// session/epoch rules); hostile or truncated blobs are rejected by the
// checked Decoder at the door and acked kRejected without touching the
// table.
//
// Slots can be fed by plain workers or by relay nodes (src/service/relay.h):
// a relay's publish payload carries an epoch-vector annex naming the
// downstream publications its blob was merged from, and Answer() substitutes
// those entries for the slot's own — so a root query over a tree of relays
// still reports per-leaf-worker staleness (epoch-vector concatenation).
// Queries fold the table's slots, in their deterministic (worker, shard)
// key order, through the same epoch-keyed MergeCache merge tree the
// in-process driver uses, so one worker republishing one shard re-merges
// only that slot's O(log slots) root path instead of the whole table.
// Every answer carries the epoch vector it was computed from. Queries
// never wait on workers: a dead or wedged worker just stops advancing its
// slots.
//
// Shutdown() is a drain, not an abort: accepting stops, every open
// connection's read side is half-closed so in-flight frames (already
// received bytes) are still decoded, processed, and acked, then the
// connection threads are joined.
#ifndef CASTREAM_SERVICE_REDUCER_H_
#define CASTREAM_SERVICE_REDUCER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/core/any_summary.h"
#include "src/driver/merge_cache.h"
#include "src/net/frame.h"
#include "src/net/socket.h"
#include "src/service/protocol.h"

namespace castream::service {

struct ReducerOptions {
  /// Summary kind every worker must publish: any registry kind ("f2",
  /// "f0", "rarity", "hh", "chh_mg", "chh_fast").
  std::string kind = "f2";
  /// Summary configuration and hash-family seed; all workers must agree
  /// (value-based family identity makes separate processes mergeable).
  SummaryOptions summary;
  uint64_t summary_seed = 42;
  /// TCP port to serve on (loopback); 0 picks an ephemeral port.
  uint16_t port = 0;
  /// How often the accept loop rechecks the shutdown flag.
  std::chrono::milliseconds accept_poll{100};
  /// Log publishes/rejections to stderr (the demo binary turns this on).
  bool log = false;
};

/// \brief One slot of a reducer's snapshot table as reported by Stats():
/// identity, idempotence state, and size — the numbers needed to see what a
/// multi-tier topology is actually holding.
struct SlotStats {
  uint32_t worker = 0;
  uint32_t shard = 0;
  uint64_t session = 0;
  uint64_t epoch = 0;
  uint64_t pub_seq = 0;
  uint64_t bytes = 0;  // accepted payload size (blob + annex)
  /// Entries in the slot's epoch-vector annex; 0 for a plain worker slot.
  uint64_t downstream_entries = 0;
};

/// \brief Counter + per-slot snapshot of a reducer's state, taken under the
/// table lock (one consistent view). castream_served prints it on SIGUSR1.
struct ReducerStats {
  std::vector<SlotStats> slots;  // in (worker, shard) key order
  uint64_t table_version = 0;
  uint64_t accepted = 0;
  uint64_t duplicate = 0;
  uint64_t rejected = 0;
  uint64_t bad_frames = 0;
  uint64_t queries = 0;
};

/// \brief The merged snapshot table: the MergeCache root over every slot,
/// the (concatenated) epoch vector it was computed from, and the table
/// version it corresponds to — what a relay serializes and republishes.
struct MergedTable {
  std::shared_ptr<const AnySummary> root;
  std::vector<EpochEntry> epochs;
  uint64_t version = 0;
  size_t slot_count = 0;
};

/// \brief Long-lived reducer: accepts publisher and client connections,
/// one thread per connection, and serves merged snapshot queries.
class SnapshotReducer {
 public:
  /// \brief Validates the configuration, binds, and starts serving.
  static Result<std::unique_ptr<SnapshotReducer>> Start(
      const ReducerOptions& options);

  ~SnapshotReducer() { Shutdown(); }

  SnapshotReducer(const SnapshotReducer&) = delete;
  SnapshotReducer& operator=(const SnapshotReducer&) = delete;

  /// \brief The bound port (what workers and clients connect to).
  uint16_t port() const { return listener_.port(); }

  /// \brief Graceful drain: stop accepting, half-close every connection's
  /// read side (frames already received are still processed and acked),
  /// join all threads. Idempotent; also run by the destructor.
  void Shutdown();

  /// \brief The query handler, also callable in-process: merge the current
  /// snapshot table, answer at `cutoff`, report the epoch vector used. An
  /// empty table answers as a fresh summary (the defined zero-stream
  /// state).
  ServedAnswer Answer(uint64_t cutoff);

  /// \brief Merges the whole table through the MergeCache and returns the
  /// root summary plus the concatenated epoch vector and the table version
  /// it reflects. The relay's republish path: it serializes `root` and
  /// ships `epochs` as the annex. An empty table yields the fresh summary
  /// with no epochs (slot_count == 0) — callers that must not publish
  /// emptiness skip on that.
  Result<MergedTable> MergedRoot();

  /// \brief Consistent per-slot + counter snapshot (see ReducerStats).
  ReducerStats Stats();

  /// \brief Bumped on every accepted publish — i.e. exactly when the
  /// merged answer can change. Change-detection hook for the relay's
  /// publish-on-change loop.
  uint64_t table_version() const { return accepted_.load(); }

  // Observability (tests assert on these; the demo logs them).
  uint64_t publishes_accepted() const { return accepted_.load(); }
  uint64_t publishes_duplicate() const { return duplicate_.load(); }
  uint64_t publishes_rejected() const { return rejected_.load(); }
  uint64_t frames_bad() const { return bad_frames_.load(); }
  uint64_t queries_served() const { return queries_.load(); }

 private:
  struct Slot {
    uint64_t session = 0;  // publisher incarnation that owns the slot
    uint64_t epoch = 0;    // worker-declared snapshot epoch
    // Reducer-local publication sequence number, bumped on every accepted
    // publish — the merge-cache key. The worker-declared epoch cannot key
    // the cache: a restarted worker (new session) restarts its epoch
    // counter, so equal epochs would not imply equal contents.
    uint64_t pub_seq = 0;
    uint64_t payload_bytes = 0;  // accepted wire payload (blob + annex)
    std::shared_ptr<const AnySummary> summary;
    // Epoch-vector annex shipped with the blob (relay publishes): the
    // downstream publications the blob was merged from. Empty for plain
    // workers; when present it replaces the slot's own entry in answers.
    std::vector<EpochEntry> downstream;
  };

  struct Connection {
    explicit Connection(net::Socket s) : socket(std::move(s)) {}
    net::Socket socket;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  SnapshotReducer(const ReducerOptions& options, SummaryKind kind,
                  net::Listener listener);

  void AcceptLoop();
  void ServeConnection(Connection* conn);
  /// \brief Decode, validate, and fold one publish; returns the ack to
  /// send. Never throws the connection away — a kRejected blob is the
  /// publisher's problem, the table stays consistent.
  void HandlePublish(const net::FrameHeader& header,
                     const std::string& payload, net::AckCode* ack_code,
                     uint64_t* stored_epoch);
  void ReapFinishedLocked();

  ReducerOptions options_;
  SummaryKind kind_;
  net::Listener listener_;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};

  std::mutex conns_mu_;
  std::list<std::unique_ptr<Connection>> conns_;

  // Snapshot table, keyed (worker, shard) — std::map so iteration is the
  // deterministic merge order the oracle replays.
  std::mutex state_mu_;
  std::map<std::pair<uint32_t, uint32_t>, Slot> slots_;
  uint64_t next_pub_seq_ = 1;

  MergeCache<AnySummary> merge_cache_;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> duplicate_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> bad_frames_{0};
  std::atomic<uint64_t> queries_{0};
};

}  // namespace castream::service

#endif  // CASTREAM_SERVICE_REDUCER_H_
