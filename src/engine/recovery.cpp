// Recovery (paper §3.7): restore the OID arrays from the newest usable
// checkpoint, then roll forward by scanning the log tail and replaying the
// allocator effects of insert/update/delete records. Payloads are fetched
// through their durable log addresses — the log is the database. The process
// is identical after a clean shutdown and after a crash; a crash merely means
// a less recent checkpoint and a longer tail.
//
// Parallel replay (EngineConfig::recovery_threads): the indirection arrays
// (§3.2) and segmented LSN space (§3.3) make replay embarrassingly parallel —
// the only ordering that matters is per version chain (per OID), and per key
// within one index. A single scan/dispatch stage walks durable blocks in
// offset order (reusing ReadValidBlock's torn-tail predicate) and routes
// records to N partition queues:
//
//   * table records (insert/update/delete) by hash(table fid, OID) — one
//     worker owns each chain, so clsn-ordered install needs no atomics
//     beyond the slot store, and chains rebuild in exactly log order;
//   * index records by hash(index fid, key) — the B+-tree is the concurrent
//     OLC tree used in normal operation, and first-insert-wins per key is
//     preserved because one worker sees each key's inserts in log order.
//
// Checkpoint loading parallelizes the same way: entries are routed by
// hash(table fid, OID) so the primary/secondary dedup rule (install once,
// clsn check) runs on one worker per OID; the image is fully parsed and
// checksum-verified before anything is dispatched, and the checkpoint phase
// completes (workers joined) before tail replay starts, so the serial
// ordering invariants — checkpoint before tail, per-chain LSN order,
// tombstone reinstall, lazy stubs — all carry over. recovery_threads=1 keeps
// the legacy single-threaded path; the crash harness's differential sweep
// asserts parallel ≡ serial state.
//
// Checkpoint fallback: markers are tried newest-to-oldest. A checkpoint data
// file is parsed and checksum-verified IN FULL before a single version or
// index entry is installed, so a torn or corrupt checkpoint never pollutes
// the engine — recovery falls back to the next-older marker, and ultimately
// to a full-log replay, instead of failing with Corruption.
//
// Call order: create the schema (same names, same order as the original
// incarnation), Open() the database (which re-adopts and truncates the
// on-disk log), then Recover().
#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "engine/checkpoint_format.h"
#include "engine/database.h"
#include "log/log_scan.h"

namespace ermia {

namespace {

// Reads exactly n bytes into dst. Retries EINTR/partial reads; a short read
// at EOF yields Corruption (the file ended early — torn), a hard error
// yields IOError.
Status ReadAll(int fd, void* dst, size_t n) {
  bool hard_error = false;
  if (fault::ReadFull(fd, dst, n, &hard_error) != n) {
    return hard_error ? Status::IOError("checkpoint read failed")
                      : Status::Corruption("checkpoint file truncated");
  }
  return Status::OK();
}

// Every checkpoint marker in the directory, newest first.
std::vector<uint64_t> FindCheckpointMarkers(const std::string& dir) {
  std::vector<uint64_t> begins;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return begins;
  struct dirent* ent;
  while ((ent = ::readdir(d)) != nullptr) {
    uint64_t off = 0;
    if (std::sscanf(ent->d_name, "cmark-%16" SCNx64, &off) == 1) {
      begins.push_back(off);
    }
  }
  ::closedir(d);
  std::sort(begins.rbegin(), begins.rend());
  return begins;
}

// Fully parsed, checksum-verified checkpoint data file. Nothing in here has
// touched the engine yet.
struct CheckpointImage {
  struct TableHwm {
    Fid fid;
    uint32_t hwm;
  };
  struct Entry {
    std::string key;
    Oid oid;
    uint64_t clsn;
    uint64_t log_ptr;
    uint32_t size;
    uint8_t tombstone;
  };
  struct IndexSection {
    Fid fid;
    std::vector<Entry> entries;
  };
  std::vector<TableHwm> tables;
  std::vector<IndexSection> indexes;
};

// Bounds-checked reader over the in-memory checkpoint body.
class BodyCursor {
 public:
  BodyCursor(const char* p, size_t n) : p_(p), end_(p + n) {}

  bool Read(void* dst, size_t n) {
    if (static_cast<size_t>(end_ - p_) < n) return false;
    std::memcpy(dst, p_, n);
    p_ += n;
    return true;
  }

  bool ReadString(std::string* dst, size_t n) {
    if (static_cast<size_t>(end_ - p_) < n) return false;
    dst->assign(p_, n);
    p_ += n;
    return true;
  }

  bool AtEnd() const { return p_ == end_; }

 private:
  const char* p_;
  const char* end_;
};

// Slurps, checksum-verifies, and parses a checkpoint data file. Returns
// Corruption/IOError without any side effect on the engine.
Status LoadCheckpointImage(const std::string& path, CheckpointImage* img) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("missing checkpoint data " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("fstat failed on " + path);
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  if (file_size < sizeof(uint32_t) * 3 + kCheckpointFooterSize) {
    ::close(fd);
    return Status::Corruption("checkpoint file too small");
  }
  std::vector<char> buf(file_size);
  Status rs = ReadAll(fd, buf.data(), buf.size());
  ::close(fd);
  ERMIA_RETURN_NOT_OK(rs);

  // Footer first: magic + FNV-1a over the body. A torn checkpoint (crash
  // mid-write before the marker of a LATER checkpoint, manual corruption,
  // bit rot) fails here and the caller falls back.
  const uint64_t body_size = file_size - kCheckpointFooterSize;
  uint32_t footer[2];
  std::memcpy(footer, buf.data() + body_size, sizeof footer);
  if (footer[0] != kCheckpointFooterMagic ||
      footer[1] != LogChecksum(buf.data(), body_size)) {
    return Status::Corruption("checkpoint checksum mismatch");
  }

  BodyCursor cur(buf.data(), body_size);
  uint32_t header[2];
  if (!cur.Read(header, sizeof header) || header[0] != kCheckpointMagic) {
    return Status::Corruption("bad checkpoint header");
  }
  const uint32_t num_indexes = header[1];
  uint32_t ntables = 0;
  if (!cur.Read(&ntables, sizeof ntables)) {
    return Status::Corruption("bad checkpoint table section");
  }
  for (uint32_t i = 0; i < ntables; ++i) {
    uint32_t rec[2];
    if (!cur.Read(rec, sizeof rec)) {
      return Status::Corruption("bad checkpoint table entry");
    }
    img->tables.push_back({rec[0], rec[1]});
  }
  for (uint32_t i = 0; i < num_indexes; ++i) {
    CheckpointImage::IndexSection section;
    uint64_t count = 0;
    if (!cur.Read(&section.fid, sizeof section.fid) ||
        !cur.Read(&count, sizeof count)) {
      return Status::Corruption("bad checkpoint index section");
    }
    section.entries.reserve(count);
    for (uint64_t j = 0; j < count; ++j) {
      CheckpointImage::Entry e;
      uint16_t klen = 0;
      if (!cur.Read(&klen, sizeof klen) || klen > kMaxKeySize ||
          !cur.ReadString(&e.key, klen) || !cur.Read(&e.oid, sizeof e.oid) ||
          !cur.Read(&e.clsn, sizeof e.clsn) ||
          !cur.Read(&e.log_ptr, sizeof e.log_ptr) ||
          !cur.Read(&e.size, sizeof e.size) ||
          !cur.Read(&e.tombstone, sizeof e.tombstone)) {
        return Status::Corruption("bad checkpoint entry");
      }
      section.entries.push_back(std::move(e));
    }
    img->indexes.push_back(std::move(section));
  }
  if (!cur.AtEnd()) return Status::Corruption("trailing checkpoint bytes");
  return Status::OK();
}

// Installs (or refreshes) a record version during recovery. Within one
// replay, each (table, OID) is touched by exactly one thread — the serial
// path trivially, the parallel path by partition routing — so plain stores
// suffice; `clsn_value` orders competing records.
void InstallRecovered(Table* table, Oid oid, const Slice& payload,
                      bool tombstone, uint64_t clsn_value, uint64_t log_ptr) {
  IndirectionArray& array = table->array();
  array.EnsureAllocatedThrough(oid);
  Version* head = array.Head(oid);
  if (head != nullptr &&
      head->clsn.load(std::memory_order_relaxed) >= clsn_value) {
    return;  // already have this state or newer (fuzzy checkpoint overlap)
  }
  Version* v = Version::Alloc(payload, tombstone);
  v->clsn.store(clsn_value, std::memory_order_relaxed);
  v->log_ptr = log_ptr;
  v->next.store(head, std::memory_order_relaxed);
  array.PutHead(oid, v);
}

// Lazy-recovery variant (anti-caching, §3.7): install a payload-less stub
// referencing the durable address; first access faults the bytes in.
void InstallRecoveredStub(Table* table, Oid oid, uint32_t size,
                          uint64_t clsn_value, uint64_t log_ptr) {
  IndirectionArray& array = table->array();
  array.EnsureAllocatedThrough(oid);
  Version* head = array.Head(oid);
  if (head != nullptr &&
      head->clsn.load(std::memory_order_relaxed) >= clsn_value) {
    return;
  }
  Version* v = Version::AllocStub(log_ptr, size);
  v->clsn.store(clsn_value, std::memory_order_relaxed);
  v->next.store(head, std::memory_order_relaxed);
  array.PutHead(oid, v);
}

// ---------------------------------------------------------------------------
// Partitioned replay pipeline
// ---------------------------------------------------------------------------

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Table records: all versions of one OID chain go to one worker.
uint32_t ChainPartition(Fid fid, Oid oid, uint32_t n) {
  return static_cast<uint32_t>(
      Mix64((static_cast<uint64_t>(fid) << 32) | oid) % n);
}

// Index records: all inserts of one (index, key) go to one worker, so the
// serial first-insert-wins outcome per key is reproduced exactly.
uint32_t KeyPartition(Fid fid, const char* key, size_t len, uint32_t n) {
  uint64_t h = 14695981039346656037ull ^ fid;
  for (size_t i = 0; i < len; ++i) {
    h ^= static_cast<uint8_t>(key[i]);
    h *= 1099511628211ull;
  }
  return static_cast<uint32_t>(h % n);
}

// Bounded batch queue, one per partition: the scan/dispatch stage is the
// single producer, one install worker the single consumer. Bounded depth so
// a fast scan over a multi-GB log cannot balloon memory if installs lag.
template <typename T>
class ReplayQueue {
 public:
  void Push(std::vector<T>&& batch) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_space_.wait(lk, [this] { return q_.size() < kMaxDepth; });
    q_.push_back(std::move(batch));
    cv_items_.notify_one();
  }

  // Blocks for the next batch; false once closed and fully drained.
  bool Pop(std::vector<T>* out) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_items_.wait(lk, [this] { return !q_.empty() || closed_; });
    if (q_.empty()) return false;
    *out = std::move(q_.front());
    q_.pop_front();
    cv_space_.notify_one();
    return true;
  }

  void Close() {
    std::lock_guard<std::mutex> lk(mu_);
    closed_ = true;
    cv_items_.notify_all();
  }

 private:
  static constexpr size_t kMaxDepth = 16;

  std::mutex mu_;
  std::condition_variable cv_items_;
  std::condition_variable cv_space_;
  std::deque<std::vector<T>> q_;
  bool closed_ = false;
};

// N install workers, each owning one partition queue. The producer calls
// Route() (single-threaded), then Finish() flushes, closes, joins, and
// returns the first worker error. After a worker error the remaining queues
// still drain (items are discarded), so the producer never deadlocks on a
// full queue.
template <typename T>
class ReplayPool {
 public:
  ReplayPool(uint32_t workers, metrics::EngineMetrics* metrics,
             std::function<Status(T&)> handler)
      : metrics_(metrics),
        handler_(std::move(handler)),
        queues_(workers),
        pending_(workers) {
    threads_.reserve(workers);
    for (uint32_t w = 0; w < workers; ++w) {
      threads_.emplace_back([this, w] { WorkerLoop(w); });
    }
  }

  ~ReplayPool() {
    if (!finished_) (void)Finish();
  }

  uint32_t partitions() const {
    return static_cast<uint32_t>(queues_.size());
  }

  void Route(uint32_t partition, T&& item) {
    std::vector<T>& pend = pending_[partition];
    pend.push_back(std::move(item));
    if (pend.size() >= kBatch) {
      queues_[partition].Push(std::move(pend));
      pend.clear();
    }
  }

  Status Finish() {
    finished_ = true;
    for (size_t p = 0; p < pending_.size(); ++p) {
      if (!pending_[p].empty()) {
        queues_[p].Push(std::move(pending_[p]));
        pending_[p].clear();
      }
    }
    for (auto& q : queues_) q.Close();
    for (auto& t : threads_) t.join();
    std::lock_guard<std::mutex> lk(err_mu_);
    return first_error_;
  }

 private:
  static constexpr size_t kBatch = 256;

  void WorkerLoop(uint32_t partition) {
    std::vector<T> batch;
    while (queues_[partition].Pop(&batch)) {
      const auto t0 = std::chrono::steady_clock::now();
      if (!failed_.load(std::memory_order_relaxed)) {
        for (T& item : batch) {
          Status s = handler_(item);
          if (!s.ok()) {
            failed_.store(true, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lk(err_mu_);
            if (first_error_.ok()) first_error_ = s;
            break;
          }
        }
      }
      const uint64_t us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      metrics_->Observe(metrics::Hist::kRecoveryBatchRecords, batch.size());
      metrics_->Observe(metrics::Hist::kRecoveryBatchUs, us);
      batch.clear();
    }
    ThreadRegistry::Deregister();
  }

  metrics::EngineMetrics* metrics_;
  std::function<Status(T&)> handler_;
  std::vector<ReplayQueue<T>> queues_;
  std::vector<std::vector<T>> pending_;  // producer-side accumulation
  std::vector<std::thread> threads_;
  std::atomic<bool> failed_{false};
  std::mutex err_mu_;
  Status first_error_;
  bool finished_ = false;
};

// One routed checkpoint entry: the image outlives the pool, so entries are
// referenced in place.
struct CkptOp {
  Table* table;
  Index* index;
  const CheckpointImage::Entry* entry;
};

// One routed tail record. Version ops reference payload bytes inside the
// shared block buffer (no copy until Version::Alloc); `buf` keeps the block
// alive until every record routed from it is installed.
struct TailOp {
  LogRecordType type;
  Table* table;  // resolved at dispatch (kIndexInsert: the index's table)
  Index* index;  // kIndexInsert only
  Oid oid;
  uint64_t clsn;
  uint64_t payload_offset;  // durable address of the payload bytes
  uint32_t key_off;
  uint32_t payload_off;
  uint32_t payload_size;
  uint16_t key_size;
  std::shared_ptr<const std::vector<char>> buf;
};

uint32_t ResolveRecoveryThreads(const EngineConfig& config) {
  uint32_t n = config.recovery_threads;
  if (n == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    n = hw == 0 ? 1 : hw;
  }
  // The pool shares the dense thread registry with the rest of the engine;
  // stay well below kMaxThreads.
  return std::min(n, 64u);
}

}  // namespace

// Resolves the image against the schema and installs it. The image is
// already checksum-verified, so every entry is authentic committed state; a
// failure here (unknown fid = schema drift, unreadable log address) aborts
// the attempt and the caller falls back to an older checkpoint — versions
// installed so far are harmless, since they carry true clsns and the
// clsn-ordered install rule keeps newer state on top.
Status Database::ApplyCheckpointImage(const void* image_ptr,
                                      LogScanner& scanner, uint32_t workers) {
  const auto& img = *static_cast<const CheckpointImage*>(image_ptr);
  // Resolve every fid before installing anything: schema drift fails the
  // whole attempt instead of leaving a half-dispatched image behind.
  for (const auto& t : img.tables) {
    if (TableByFid(t.fid) == nullptr) {
      return Status::Corruption("checkpoint references unknown table fid");
    }
  }
  std::vector<Index*> section_index(img.indexes.size());
  for (size_t i = 0; i < img.indexes.size(); ++i) {
    section_index[i] = IndexByFid(img.indexes[i].fid);
    if (section_index[i] == nullptr) {
      return Status::Corruption("checkpoint references unknown index fid");
    }
  }
  for (const auto& t : img.tables) {
    Table* table = TableByFid(t.fid);
    if (t.hwm > 1) table->array().EnsureAllocatedThrough(t.hwm - 1);
  }

  // Shared by both paths: install one entry and its index mapping. The
  // version is installed once even when secondary sections repeat the OID
  // (the clsn check deduplicates); partition routing by (table, OID) keeps
  // that dedup on a single worker.
  auto apply_entry = [this, &scanner](Table* table, Index* index,
                                      const CheckpointImage::Entry& e,
                                      std::vector<char>& payload) -> Status {
    if (e.tombstone) {
      // No payload to fetch or stub: install the tombstone directly. The
      // index entry below keeps the key→OID mapping alive for replayed
      // tombstone-overwrite updates.
      InstallRecovered(table, e.oid, Slice(), true, e.clsn, e.log_ptr);
    } else if (config_.lazy_recovery) {
      InstallRecoveredStub(table, e.oid, e.size, e.clsn, e.log_ptr);
    } else {
      payload.resize(e.size);
      ERMIA_RETURN_NOT_OK(scanner.ReadAt(e.log_ptr, payload.data(), e.size));
      InstallRecovered(table, e.oid, Slice(payload.data(), e.size), false,
                       e.clsn, e.log_ptr);
    }
    index->tree().Insert(Slice(e.key), e.oid, nullptr, nullptr);
    metrics_.Inc(metrics::Ctr::kRecoveryCheckpointEntries);
    return Status::OK();
  };

  if (workers <= 1) {
    std::vector<char> payload;
    for (size_t i = 0; i < img.indexes.size(); ++i) {
      Index* index = section_index[i];
      Table* table = index->table();
      for (const auto& e : img.indexes[i].entries) {
        ERMIA_RETURN_NOT_OK(apply_entry(table, index, e, payload));
      }
    }
    return Status::OK();
  }

  ReplayPool<CkptOp> pool(workers, &metrics_, [&apply_entry](CkptOp& op) {
    thread_local std::vector<char> payload;
    return apply_entry(op.table, op.index, *op.entry, payload);
  });
  for (size_t i = 0; i < img.indexes.size(); ++i) {
    Index* index = section_index[i];
    Table* table = index->table();
    for (const auto& e : img.indexes[i].entries) {
      pool.Route(ChainPartition(table->fid(), e.oid, pool.partitions()),
                 CkptOp{table, index, &e});
    }
  }
  return pool.Finish();
}

Status Database::RecoverImpl() {
  LogScanner scanner(config_.log_dir);
  ERMIA_RETURN_NOT_OK(scanner.Init());
  // Per-operation logs (Fig. 10 WAL emulation) write records as operations
  // execute, before the transaction's fate is known; replaying them would
  // resurrect the writes of aborted transactions. The mode is stamped into
  // each segment's file name, so refuse up front instead of installing
  // garbage.
  if (scanner.any_per_operation()) {
    return Status::InvalidArgument(
        "log was written with log_per_operation=true and is not recoverable: "
        "per-operation segments contain records of aborted transactions");
  }
  const uint32_t workers = ResolveRecoveryThreads(config_);

  // Try checkpoints newest-to-oldest; a corrupt/torn/unreadable one is
  // skipped, not fatal. With no usable checkpoint, replay the whole log.
  // The checkpoint phase completes (all workers joined) before the tail
  // starts, so tail records always install on top of checkpoint state,
  // exactly as in the serial path.
  uint64_t replay_from = kLogStartOffset;
  for (uint64_t begin : FindCheckpointMarkers(config_.log_dir)) {
    const std::string path =
        config_.log_dir + "/" + CheckpointDataName(begin);
    CheckpointImage img;
    Status s = LoadCheckpointImage(path, &img);
    if (s.ok()) s = ApplyCheckpointImage(&img, scanner, workers);
    if (s.ok()) {
      replay_from = begin;
      break;
    }
    std::fprintf(stderr,
                 "ermia: checkpoint %s unusable (%s); falling back to an "
                 "older checkpoint or full replay\n",
                 path.c_str(), s.ToString().c_str());
  }

  // Roll forward from the checkpoint (or the log start). Under lazy
  // recovery the tail installs stubs too: the payload bytes are durable at
  // a known address, so materialization on first access works for
  // tail-replayed records exactly as for checkpointed ones.
  if (workers <= 1) {
    // Legacy serial path, kept bit-for-bit for differential testing.
    Status scan_status =
        scanner.Scan(replay_from, [&](const ScannedBlock& block) {
          const uint64_t clsn_value = Lsn::Make(block.offset, 0).value();
          metrics_.Inc(metrics::Ctr::kRecoveryReplayBlocks);
          metrics_.Inc(metrics::Ctr::kRecoveryReplayBytes,
                       block.end_offset - block.offset);
          metrics_.Inc(metrics::Ctr::kRecoveryReplayRecords,
                       block.records.size());
          for (const auto& rec : block.records) {
            switch (rec.type) {
              case LogRecordType::kInsert:
              case LogRecordType::kUpdate: {
                Table* table = TableByFid(rec.fid);
                if (table == nullptr) break;  // unknown fid: schema drift
                if (config_.lazy_recovery) {
                  InstallRecoveredStub(table, rec.oid,
                                       static_cast<uint32_t>(rec.payload.size()),
                                       clsn_value, rec.payload_offset);
                } else {
                  InstallRecovered(table, rec.oid, Slice(rec.payload), false,
                                   clsn_value, rec.payload_offset);
                }
                break;
              }
              case LogRecordType::kDelete: {
                Table* table = TableByFid(rec.fid);
                if (table == nullptr) break;
                InstallRecovered(table, rec.oid, Slice(), true, clsn_value, 0);
                break;
              }
              case LogRecordType::kIndexInsert: {
                Index* index = IndexByFid(rec.fid);
                if (index == nullptr) break;
                index->table()->array().EnsureAllocatedThrough(rec.oid);
                index->tree().Insert(Slice(rec.key), rec.oid, nullptr,
                                     nullptr);
                break;
              }
              default:
                break;
            }
          }
        });
    return scan_status;
  }

  ReplayPool<TailOp> pool(workers, &metrics_, [this](TailOp& op) -> Status {
    const char* base = op.buf->data();
    switch (op.type) {
      case LogRecordType::kInsert:
      case LogRecordType::kUpdate:
        if (config_.lazy_recovery) {
          InstallRecoveredStub(op.table, op.oid, op.payload_size, op.clsn,
                               op.payload_offset);
        } else {
          InstallRecovered(op.table, op.oid,
                           Slice(base + op.payload_off, op.payload_size),
                           false, op.clsn, op.payload_offset);
        }
        break;
      case LogRecordType::kDelete:
        InstallRecovered(op.table, op.oid, Slice(), true, op.clsn, 0);
        break;
      case LogRecordType::kIndexInsert:
        op.table->array().EnsureAllocatedThrough(op.oid);
        op.index->tree().Insert(Slice(base + op.key_off, op.key_size), op.oid,
                                nullptr, nullptr);
        break;
      default:
        break;
    }
    return Status::OK();
  });

  Status scan_status =
      scanner.ScanRaw(replay_from, [&](RawBlock&& raw) -> Status {
        const uint64_t clsn_value = Lsn::Make(raw.offset, 0).value();
        metrics_.Inc(metrics::Ctr::kRecoveryReplayBlocks);
        metrics_.Inc(metrics::Ctr::kRecoveryReplayBytes,
                     raw.end_offset - raw.offset);
        auto buf = std::make_shared<const std::vector<char>>(
            std::move(raw.payload));
        RecordCursor cur(raw.offset, buf->data(), buf->size(),
                         raw.num_records);
        RecordView rec;
        uint64_t nrecords = 0;
        while (cur.Next(&rec)) {
          ++nrecords;
          TailOp op;
          op.type = rec.type;
          op.oid = rec.oid;
          op.clsn = clsn_value;
          switch (rec.type) {
            case LogRecordType::kInsert:
            case LogRecordType::kUpdate:
            case LogRecordType::kDelete: {
              op.table = TableByFid(rec.fid);
              if (op.table == nullptr) continue;  // schema drift, skip
              op.index = nullptr;
              op.payload_offset =
                  rec.type == LogRecordType::kDelete ? 0 : rec.payload_offset;
              op.key_off = 0;
              op.key_size = 0;
              op.payload_off =
                  static_cast<uint32_t>(rec.payload - buf->data());
              op.payload_size = rec.payload_size;
              op.buf = buf;
              pool.Route(
                  ChainPartition(rec.fid, rec.oid, pool.partitions()),
                  std::move(op));
              break;
            }
            case LogRecordType::kIndexInsert: {
              op.index = IndexByFid(rec.fid);
              if (op.index == nullptr) continue;
              op.table = op.index->table();
              op.payload_offset = 0;
              op.key_off = static_cast<uint32_t>(rec.key - buf->data());
              op.key_size = rec.key_size;
              op.payload_off = 0;
              op.payload_size = 0;
              op.buf = buf;
              pool.Route(KeyPartition(rec.fid, rec.key, rec.key_size,
                                      pool.partitions()),
                         std::move(op));
              break;
            }
            default:
              break;
          }
        }
        metrics_.Inc(metrics::Ctr::kRecoveryReplayRecords, nrecords);
        return cur.status();
      });
  Status pool_status = pool.Finish();  // join workers even on a scan error
  ERMIA_RETURN_NOT_OK(scan_status);
  return pool_status;
}

Status Database::Recover() {
  if (log_.in_memory()) return Status::OK();  // nothing durable to recover
  ERMIA_CHECK(open_);
  const auto t0 = std::chrono::steady_clock::now();
  Status s = RecoverImpl();
  metrics_.Inc(metrics::Ctr::kRecoveryDurationUs,
               static_cast<uint64_t>(
                   std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - t0)
                       .count()));
  return s;
}

}  // namespace ermia
