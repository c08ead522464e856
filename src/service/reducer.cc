#include "src/service/reducer.h"

#include <cinttypes>
#include <cstdio>
#include <vector>

#include "src/io/decoder.h"

namespace castream::service {

Result<std::unique_ptr<SnapshotReducer>> SnapshotReducer::Start(
    const ReducerOptions& options) {
  CASTREAM_ASSIGN_OR_RETURN(SummaryKind kind,
                            SummaryKindFromName(options.kind));
  // Validate the summary configuration once, up front: the merge cache and
  // the publish validator both build fresh summaries from it and must
  // never see the factory fail afterwards.
  CASTREAM_ASSIGN_OR_RETURN(
      AnySummary probe,
      MakeSummary(kind, options.summary, options.summary_seed));
  (void)probe;
  CASTREAM_ASSIGN_OR_RETURN(net::Listener listener,
                            net::Listener::Bind(options.port));
  std::unique_ptr<SnapshotReducer> reducer(
      new SnapshotReducer(options, kind, std::move(listener)));
  reducer->accept_thread_ =
      std::thread([r = reducer.get()] { r->AcceptLoop(); });
  return reducer;
}

SnapshotReducer::SnapshotReducer(const ReducerOptions& options,
                                 SummaryKind kind, net::Listener listener)
    : options_(options),
      kind_(kind),
      listener_(std::move(listener)),
      merge_cache_([this] {
        // Start() proved this factory call succeeds for the validated
        // configuration, so .value() cannot assert here.
        return MakeSummary(kind_, options_.summary, options_.summary_seed)
            .value();
      }) {}

void SnapshotReducer::Shutdown() {
  if (stopping_.exchange(true)) {
    // Second caller (destructor after an explicit Shutdown): the join
    // below already happened; accept_thread_ is no longer joinable.
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // Half-close the read side of every live connection: bytes already
    // received are still delivered to (and processed by) its thread, then
    // the thread sees EOF and exits — the drain the header promises.
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) conn->socket.ShutdownRead();
  }
  for (;;) {
    std::unique_ptr<Connection> conn;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (conns_.empty()) break;
      conn = std::move(conns_.front());
      conns_.pop_front();
    }
    if (conn->thread.joinable()) conn->thread.join();
  }
  listener_.Close();
}

void SnapshotReducer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    auto accepted = listener_.Accept(options_.accept_poll);
    if (!accepted.ok()) {
      if (options_.log) {
        std::fprintf(stderr, "reducer: accept: %s\n",
                     accepted.status().ToString().c_str());
      }
      break;
    }
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      ReapFinishedLocked();
      if (accepted.value().has_value()) {
        conns_.push_back(std::make_unique<Connection>(
            std::move(*accepted.value())));
        Connection* conn = conns_.back().get();
        conn->thread = std::thread([this, conn] { ServeConnection(conn); });
      }
    }
  }
}

void SnapshotReducer::ReapFinishedLocked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void SnapshotReducer::ServeConnection(Connection* conn) {
  for (;;) {
    auto frame = net::ReadFrame(conn->socket);
    if (!frame.ok()) {
      // Partial frame, bad magic, hostile length: framing is lost, so the
      // connection is unrecoverable — but only this connection. The table
      // and every other session keep serving.
      bad_frames_.fetch_add(1, std::memory_order_relaxed);
      if (options_.log) {
        std::fprintf(stderr, "reducer: dropping connection: %s\n",
                     frame.status().ToString().c_str());
      }
      break;
    }
    if (!frame.value().has_value()) break;  // clean EOF
    const net::Frame& f = *frame.value();
    if (f.header.type == net::FrameType::kPublish) {
      net::AckCode code = net::AckCode::kRejected;
      uint64_t stored_epoch = 0;
      HandlePublish(f.header, f.payload, &code, &stored_epoch);
      std::string ack;
      EncodeAck(code, stored_epoch, &ack);
      net::FrameHeader reply = f.header;
      reply.type = net::FrameType::kPublishAck;
      if (!net::WriteFrame(conn->socket, reply, ack).ok()) break;
    } else if (f.header.type == net::FrameType::kQuery) {
      uint64_t cutoff = 0;
      ServedAnswer answer;
      if (Status st = DecodeQuery(io::BytesOf(f.payload), &cutoff);
          !st.ok()) {
        answer.status = st;
      } else {
        answer = Answer(cutoff);
      }
      std::string reply_payload;
      EncodeAnswer(answer, &reply_payload);
      net::FrameHeader reply;
      reply.type = net::FrameType::kQueryReply;
      if (!net::WriteFrame(conn->socket, reply, reply_payload).ok()) break;
    } else {
      // An ack or reply arriving at the server: a confused peer. Framing
      // itself is intact, but the session is nonsense; drop it.
      bad_frames_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
  }
  conn->done.store(true, std::memory_order_release);
}

void SnapshotReducer::HandlePublish(const net::FrameHeader& header,
                                    const std::string& payload,
                                    net::AckCode* ack_code,
                                    uint64_t* stored_epoch) {
  *ack_code = net::AckCode::kRejected;
  *stored_epoch = 0;
  auto reject = [&](const char* why) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    if (options_.log) {
      std::fprintf(stderr,
                   "reducer: rejected publish worker=%u shard=%u epoch=%"
                   PRIu64 ": %s\n",
                   header.worker, header.shard, header.epoch, why);
    }
  };
  if (header.epoch == 0) {
    reject("epoch 0 is the never-published sentinel and cannot be shipped");
    return;
  }
  // The payload is a SerializeShard blob, optionally followed by a relay's
  // epoch-vector annex; the CAST envelope's own length field marks the
  // boundary. The checked Decoder behind Deserialize rejects truncated,
  // bit-flipped, and count-inflated bytes before any allocation sized by
  // them happens — and the annex decoder applies the same discipline.
  std::span<const std::byte> blob, annex;
  if (Status st = SplitPublishPayload(io::BytesOf(payload), &blob, &annex);
      !st.ok()) {
    reject(st.ToString().c_str());
    return;
  }
  std::vector<EpochEntry> downstream;
  if (!annex.empty()) {
    if (Status st = DecodeEpochAnnex(annex, &downstream); !st.ok()) {
      reject(st.ToString().c_str());
      return;
    }
  }
  auto decoded = AnySummary::Deserialize(blob);
  if (!decoded.ok()) {
    reject(decoded.status().ToString().c_str());
    return;
  }
  if (decoded.value().kind() != kind_) {
    reject("blob kind does not match the reducer's configured kind");
    return;
  }
  {
    // Probe-merge into a fresh summary: catches a family/options mismatch
    // (wrong seed, wrong dimensions) at the door, instead of poisoning
    // every future query. Costs one merge per accepted publish.
    AnySummary probe =
        MakeSummary(kind_, options_.summary, options_.summary_seed).value();
    if (Status st = probe.MergeFrom(decoded.value()); !st.ok()) {
      reject(st.ToString().c_str());
      return;
    }
  }

  std::lock_guard<std::mutex> lock(state_mu_);
  Slot& slot = slots_[{header.worker, header.shard}];
  if (slot.summary != nullptr) {
    if (header.session < slot.session ||
        (header.session == slot.session && header.epoch <= slot.epoch)) {
      // Idempotent re-publish (same or older epoch of the same session) or
      // a stale echo from a dead incarnation: a no-op by design.
      duplicate_.fetch_add(1, std::memory_order_relaxed);
      *ack_code = net::AckCode::kDuplicate;
      *stored_epoch = slot.epoch;
      return;
    }
  }
  slot.session = header.session;
  slot.epoch = header.epoch;
  slot.pub_seq = next_pub_seq_++;
  slot.payload_bytes = payload.size();
  slot.summary =
      std::make_shared<const AnySummary>(std::move(decoded).value());
  slot.downstream = std::move(downstream);
  accepted_.fetch_add(1, std::memory_order_relaxed);
  *ack_code = net::AckCode::kAccepted;
  *stored_epoch = slot.epoch;
  if (options_.log) {
    std::fprintf(stderr,
                 "reducer: accepted worker=%u shard=%u epoch=%" PRIu64
                 " (%zu bytes)\n",
                 header.worker, header.shard, header.epoch, payload.size());
  }
}

Result<MergedTable> SnapshotReducer::MergedRoot() {
  std::vector<std::shared_ptr<const AnySummary>> snaps;
  std::vector<uint64_t> seqs;
  MergedTable table;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    snaps.reserve(slots_.size());
    seqs.reserve(slots_.size());
    table.epochs.reserve(slots_.size());
    for (const auto& [key, slot] : slots_) {
      snaps.push_back(slot.summary);
      seqs.push_back(slot.pub_seq);
      if (slot.downstream.empty()) {
        table.epochs.push_back(
            EpochEntry{key.first, key.second, slot.epoch});
      } else {
        // Epoch-vector concatenation: a relay slot reports the downstream
        // publications its blob was merged from, not itself — so the root
        // of a tree still answers with per-leaf-worker staleness.
        table.epochs.insert(table.epochs.end(), slot.downstream.begin(),
                            slot.downstream.end());
      }
    }
    table.version = accepted_.load(std::memory_order_relaxed);
    table.slot_count = slots_.size();
  }
  // Merge outside the table lock: publishes keep landing while a (possibly
  // expensive) root-path rebuild runs; they'll be picked up by the next
  // query.
  CASTREAM_ASSIGN_OR_RETURN(table.root, merge_cache_.Merge(snaps, seqs));
  return table;
}

ServedAnswer SnapshotReducer::Answer(uint64_t cutoff) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  ServedAnswer answer;
  auto merged = MergedRoot();
  if (!merged.ok()) {
    answer.status = merged.status();
    return answer;
  }
  answer.epochs = std::move(merged.value().epochs);
  auto q = merged.value().root->Query(cutoff);
  if (!q.ok()) {
    answer.status = q.status();
    return answer;
  }
  answer.status = Status::OK();
  answer.estimate = q.value();
  return answer;
}

ReducerStats SnapshotReducer::Stats() {
  ReducerStats stats;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    stats.slots.reserve(slots_.size());
    for (const auto& [key, slot] : slots_) {
      SlotStats s;
      s.worker = key.first;
      s.shard = key.second;
      s.session = slot.session;
      s.epoch = slot.epoch;
      s.pub_seq = slot.pub_seq;
      s.bytes = slot.payload_bytes;
      s.downstream_entries = slot.downstream.size();
      stats.slots.push_back(s);
    }
    stats.table_version = accepted_.load(std::memory_order_relaxed);
  }
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.duplicate = duplicate_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.bad_frames = bad_frames_.load(std::memory_order_relaxed);
  stats.queries = queries_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace castream::service
