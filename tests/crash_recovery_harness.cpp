// Crash-fault-injection harness: the end-to-end proof that recovery never
// loses an acknowledged commit and never exposes an unacknowledged write.
//
// Each seed runs one experiment:
//
//   1. fork() a child. The child arms a seed-derived fault plan
//      (fault::InstallPlan), opens a Database with synchronous_commit on a
//      fresh directory, and runs a mixed YCSB-style workload (2 writer
//      threads on disjoint key stripes, inserts/updates/deletes, periodic
//      checkpoints, tiny segments on some seeds to force rotation). Before
//      every Commit() the child journals the transaction's intent — seq and
//      (op, key) pairs, values derivable from seq — over a pipe; after
//      Commit() returns it journals the ack. The fault plan kills the child
//      (SIGKILL mid-write for torn writes, SIGABRT when the flusher panics
//      on a failed fsync) or injects a survivable error and lets the
//      workload finish.
//   2. The parent drains the journal, reconstructs a per-key oracle, then
//      reopens the directory and runs Recover() in-process. Recover() must
//      succeed (truncating any torn tail, falling back past any torn
//      checkpoint) and the recovered state must satisfy, for every key:
//        - a visible value decodes to a journaled, non-aborted intent at
//          least as new as the key's last acknowledged intent (durability:
//          acked commits cannot be rolled back; isolation: aborted writes
//          cannot surface);
//        - an absent key is justified by an acked delete (or no acked write
//          at all), or by a later possibly-durable delete intent.
//      Point reads, a full range scan, and spot checks under every CC
//      scheme must agree.
//   3. Differential replay: the first recovery runs the partitioned parallel
//      pipeline (ERMIA_RECOVERY_THREADS workers, default 4); the directory is
//      then reopened with recovery_threads=1 (the legacy serial path) and the
//      visible state must match byte-for-byte. Any routing or ordering bug in
//      the parallel path shows up as a divergence against the serial oracle.
//   4. The torn-tail regression closes the loop: the parent appends fresh
//      commits to the recovered database, restarts, and recovers AGAIN
//      (parallel again, exercising mixed serial/parallel restarts). With
//      the old header-only FindTail, a torn tail made the reopened log adopt
//      a tail past the torn block and this second recovery silently lost the
//      post-crash commits.
//
// The sweep runs seeds base..base+31 (ERMIA_CRASH_SEED_BASE overrides the
// base; ERMIA_CRASH_SEEDS limits the count for quick local runs). On
// failure the seed is part of the test name and echoed in the trace — rerun
// with ERMIA_CRASH_SEED_BASE=<base> --gtest_filter='*/<index>'.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "engine/database.h"
#include "test_util.h"

namespace ermia {
namespace {

constexpr int kThreads = 2;
constexpr int kKeysPerThread = 48;
constexpr int kMaxTxnsPerThread = 400;

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Everything seed-derived about one experiment.
struct Experiment {
  fault::Plan plan;
  uint64_t log_segment_size;
  int checkpoint_every;  // thread-0 commits between checkpoints
  bool lazy_recovery;    // verify under lazy recovery on some seeds
};

Experiment MakeExperiment(uint64_t seed) {
  Experiment e;
  const uint64_t m = Mix64(seed) % 16;
  // Weighted toward the modes that kill the process mid-write: that is
  // where torn tails come from. The survivable slots exercise the degraded
  // modes: a one-shot short write (transient error, flusher retries), a
  // burst of short writes (a real ENOSPC-style stall: the log parks in
  // kStalled, sheds writers, then resumes when the fires run out), and a
  // failed fsync (sticky kPoisoned read-only mode; the child finishes its
  // workload shedding writers and exits cleanly).
  if (m < 7) {
    e.plan.mode = fault::Mode::kTornWrite;
  } else if (m < 10) {
    e.plan.mode = fault::Mode::kCrash;
  } else if (m < 12) {
    e.plan.mode = fault::Mode::kShortWrite;
  } else if (m < 14) {
    e.plan.mode = fault::Mode::kShortWrite;
    e.plan.fire_count = 40;  // stall across many flush retries, then resume
  } else {
    e.plan.mode = fault::Mode::kFsyncError;
  }
  e.plan.seed = seed;
  e.plan.trigger_after = 1 + Mix64(seed ^ 1) % 900;
  e.log_segment_size = (Mix64(seed ^ 2) & 1) ? (1ull << 14) : (1ull << 16);
  e.checkpoint_every = 16 + static_cast<int>(Mix64(seed ^ 3) % 32);
  e.lazy_recovery = (Mix64(seed ^ 4) & 1) != 0;
  return e;
}

EngineConfig WorkloadConfig(const std::string& dir, const Experiment& e) {
  EngineConfig config;
  config.log_dir = dir;
  config.synchronous_commit = true;  // an ack means durable — the contract
  config.log_segment_size = e.log_segment_size;
  // Fast stall retries so the burst-of-short-writes experiments resume in
  // milliseconds instead of riding the production backoff curve.
  config.log_stall_retry_initial_ms = 1;
  config.log_stall_retry_max_ms = 8;
  return config;
}

std::string KeyFor(int tid, int slot) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "w%d-k%03d", tid, slot);
  return buf;
}

// Values encode the writing transaction: "v<seq>:<key>:" + seq%120 pad
// bytes. The oracle re-derives the exact string, so a recovered value both
// identifies its intent and proves the payload survived bit-for-bit.
std::string ValueFor(uint64_t seq, const std::string& key) {
  std::string v = "v" + std::to_string(seq) + ":" + key + ":";
  v.append(seq % 120, 'x');
  return v;
}

// One journal line per write() call: atomic on a pipe for < PIPE_BUF bytes,
// so the parent never sees interleaved or torn lines.
void JournalWrite(int fd, const std::string& line) {
  const char* p = line.data();
  size_t n = line.size();
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      ::_exit(2);  // journal must not fail silently
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
}

// ---- child side -----------------------------------------------------------

struct StagedOp {
  char op;  // 'P' or 'D'
  std::string key;
};

void WorkerThread(Database* db, Table* table, Index* pk, Index* sec, int tid,
                  uint64_t seed, int journal_fd,
                  std::atomic<uint64_t>* seq_gen, int checkpoint_every) {
  uint64_t rng = Mix64(seed ^ (0xABCDull + tid));
  auto next = [&rng]() {
    rng = Mix64(rng);
    return rng;
  };
  std::set<std::string> sec_inserted;
  int commits_since_checkpoint = 0;
  for (int i = 0; i < kMaxTxnsPerThread; ++i) {
    const uint64_t seq = seq_gen->fetch_add(1);
    std::vector<StagedOp> ops;
    std::set<std::string> used;
    const int nops = 1 + static_cast<int>(next() % 3);
    for (int k = 0; k < nops; ++k) {
      std::string key = KeyFor(tid, static_cast<int>(next() % kKeysPerThread));
      if (!used.insert(key).second) continue;
      ops.push_back({next() % 10 < 7 ? 'P' : 'D', key});
    }

    Transaction txn(db, CcScheme::kSi);
    std::vector<StagedOp> staged;
    bool failed = false;
    for (const StagedOp& op : ops) {
      if (op.op == 'P') {
        Oid oid = 0;
        Status s = txn.Insert(table, pk, op.key, ValueFor(seq, op.key), &oid);
        if (s.IsKeyExists()) {
          if (!txn.GetOid(pk, op.key, &oid).ok() ||
              !txn.Update(table, oid, ValueFor(seq, op.key)).ok()) {
            failed = true;
            break;
          }
        } else if (!s.ok()) {
          failed = true;
          break;
        } else if (sec_inserted.insert(op.key).second) {
          if (!txn.InsertIndexEntry(sec, "s" + op.key, oid).ok()) {
            failed = true;
            break;
          }
        }
        staged.push_back(op);
      } else {
        Oid oid = 0;
        Status s = txn.GetOid(pk, op.key, &oid);
        if (s.IsNotFound()) continue;  // nothing visible to delete
        if (!s.ok() || !txn.Delete(table, oid).ok()) {
          failed = true;
          break;
        }
        staged.push_back(op);
      }
    }
    if (failed || staged.empty()) {
      txn.Abort();
      continue;  // never journaled: invisible to the oracle
    }

    // Intent strictly before Commit(): if the ack line is missing the
    // oracle treats the write as "possibly durable", never "required".
    std::string line = "I " + std::to_string(seq);
    for (const StagedOp& op : staged) {
      line += ' ';
      line += op.op;
      line += op.key;
    }
    line += '\n';
    JournalWrite(journal_fd, line);

    const Status cs = txn.Commit();
    // LogUnavailable is the one ambiguous outcome: on a degraded log the
    // commit may be visible in the log without ever being acked durable
    // (or may have been shed before becoming visible). Journal it as 'U' —
    // possibly durable: never required to survive, never forbidden to.
    const char* ack = cs.ok() ? "C " : (cs.IsLogUnavailable() ? "U " : "A ");
    JournalWrite(journal_fd, ack + std::to_string(seq) + "\n");

    if (cs.ok() && tid == 0 && ++commits_since_checkpoint >= checkpoint_every) {
      commits_since_checkpoint = 0;
      // Checkpoint faults (short write, failed fsync) are survivable by
      // design; the workload keeps going.
      (void)db->TakeCheckpoint(nullptr);
    }
  }
}

// Runs the workload until the fault plan kills the process or the workload
// completes. Never returns normally — exits 0 (workload done), or dies at
// the fault point, or exits 2 (harness bug).
[[noreturn]] void RunChild(const std::string& dir, const Experiment& e,
                           int journal_fd) {
  fault::InstallPlan(e.plan);
  Database db(WorkloadConfig(dir, e));
  Table* table = db.CreateTable("kv");
  Index* pk = db.CreateIndex(table, "kv_pk");
  Index* sec = db.CreateIndex(table, "kv_sec");
  // A survivable fault can fire during Open (e.g. a failed dir fsync while
  // creating the first segment). Nothing was acked, so an empty run is a
  // valid — if boring — experiment.
  if (!db.Open().ok()) ::_exit(0);
  std::atomic<uint64_t> seq_gen{1};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back(WorkerThread, &db, table, pk, sec, t, e.plan.seed,
                         journal_fd, &seq_gen, e.checkpoint_every);
  }
  for (auto& w : workers) w.join();
  // Skip destructors: a clean Close would flush state the experiment's
  // journal knows nothing about being optional. All acked commits are
  // already durable (synchronous_commit), which is all the oracle assumes.
  ::_exit(0);
}

// ---- parent side: journal oracle ------------------------------------------

struct KeyEvent {
  size_t pos;  // journal line number: per-key order (one writer per stripe)
  uint64_t seq;
  char op;
};

struct Journal {
  std::map<uint64_t, size_t> intent_pos;
  std::map<uint64_t, std::map<std::string, char>> intent_ops;
  std::set<uint64_t> acked;
  std::set<uint64_t> aborted;
  std::map<std::string, std::vector<KeyEvent>> per_key;
};

Journal ParseJournal(const std::string& raw) {
  Journal j;
  std::istringstream in(raw);
  std::string line;
  size_t pos = 0;
  while (std::getline(in, line)) {
    ++pos;
    std::istringstream ls(line);
    std::string tag;
    uint64_t seq = 0;
    if (!(ls >> tag >> seq)) continue;  // defensively skip malformed lines
    if (tag == "I") {
      j.intent_pos[seq] = pos;
      std::string tok;
      while (ls >> tok) {
        if (tok.size() < 2) continue;
        const char op = tok[0];
        const std::string key = tok.substr(1);
        j.intent_ops[seq][key] = op;
        j.per_key[key].push_back({pos, seq, op});
      }
    } else if (tag == "C") {
      j.acked.insert(seq);
    } else if (tag == "A") {
      j.aborted.insert(seq);
    }
    // "U" (commit shed by a degraded log, durability ambiguous) lands in
    // neither set: the intent stays possibly-durable, exactly like an
    // intent whose ack line never arrived.
  }
  return j;
}

class CrashRecoveryHarness : public ::testing::TestWithParam<int> {};

TEST_P(CrashRecoveryHarness, AckedCommitsSurviveInjectedCrash) {
  uint64_t base = 0x20160626;  // ERMIA's SIGMOD
  if (const char* env = ::getenv("ERMIA_CRASH_SEED_BASE")) {
    base = std::strtoull(env, nullptr, 0);
  }
  if (const char* env = ::getenv("ERMIA_CRASH_SEEDS")) {
    if (GetParam() >= std::atoi(env)) {
      GTEST_SKIP() << "beyond ERMIA_CRASH_SEEDS";
    }
  }
  const uint64_t seed = base + static_cast<uint64_t>(GetParam());
  SCOPED_TRACE("reproduce with ERMIA_CRASH_SEED_BASE=" + std::to_string(seed) +
               " --gtest_filter='*AckedCommitsSurviveInjectedCrash/0'");
  const Experiment e = MakeExperiment(seed);

  const std::string dir = testing::MakeTempDir();
  int pipefd[2];
  ASSERT_EQ(::pipe(pipefd), 0);

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(pipefd[0]);
    RunChild(dir, e, pipefd[1]);  // noreturn
  }
  ::close(pipefd[1]);

  // Drain the journal before waiting: the child blocks if the pipe fills.
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t r = ::read(pipefd[0], buf, sizeof buf);
    if (r < 0) {
      if (errno == EINTR) continue;
      FAIL() << "journal read failed: " << std::strerror(errno);
    }
    if (r == 0) break;
    raw.append(buf, static_cast<size_t>(r));
  }
  ::close(pipefd[0]);

  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  if (WIFEXITED(wstatus)) {
    ASSERT_EQ(WEXITSTATUS(wstatus), 0) << "child reported a harness failure";
  } else {
    ASSERT_TRUE(WIFSIGNALED(wstatus));
    const int sig = WTERMSIG(wstatus);
    // SIGKILL: injected power loss. SIGABRT: the flusher's deliberate panic
    // on a failed write/fsync (never ack what is not durable).
    ASSERT_TRUE(sig == SIGKILL || sig == SIGABRT) << "signal " << sig;
  }

  const Journal j = ParseJournal(raw);

  // ---- first recovery: partitioned parallel replay ----
  EngineConfig rconfig = WorkloadConfig(dir, e);
  rconfig.lazy_recovery = e.lazy_recovery;
  rconfig.recovery_threads = 4;
  if (const char* env = ::getenv("ERMIA_RECOVERY_THREADS")) {
    rconfig.recovery_threads = static_cast<uint32_t>(std::atoi(env));
  }
  auto db = std::make_unique<Database>(rconfig);
  Table* table = db->CreateTable("kv");
  Index* pk = db->CreateIndex(table, "kv_pk");
  Index* sec = db->CreateIndex(table, "kv_sec");
  ASSERT_TRUE(db->Open().ok());
  Status rs = db->Recover();
  ASSERT_TRUE(rs.ok()) << "recovery must repair any torn state: "
                       << rs.ToString();

  // ---- per-key oracle ----
  std::map<std::string, std::string> present;  // key -> recovered value
  for (int tid = 0; tid < kThreads; ++tid) {
    for (int slot = 0; slot < kKeysPerThread; ++slot) {
      const std::string key = KeyFor(tid, slot);
      auto hit = j.per_key.find(key);
      const std::vector<KeyEvent> empty;
      const std::vector<KeyEvent>& events =
          hit == j.per_key.end() ? empty : hit->second;
      const KeyEvent* last_acked = nullptr;
      for (const KeyEvent& ev : events) {
        if (j.acked.count(ev.seq)) last_acked = &ev;
      }

      Transaction txn(db.get(), CcScheme::kSi);
      Slice v;
      const Status s = txn.Get(pk, key, &v);
      if (s.ok()) {
        const std::string value = v.ToString();
        uint64_t vseq = 0;
        ASSERT_GT(value.size(), 1u) << key;
        vseq = std::strtoull(value.c_str() + 1, nullptr, 10);
        auto ops = j.intent_ops.find(vseq);
        ASSERT_TRUE(ops != j.intent_ops.end())
            << key << ": recovered value from unjournaled txn " << vseq;
        auto op = ops->second.find(key);
        ASSERT_TRUE(op != ops->second.end() && op->second == 'P')
            << key << ": txn " << vseq << " staged no put on this key";
        ASSERT_EQ(value, ValueFor(vseq, key)) << key << ": payload corrupted";
        ASSERT_EQ(j.aborted.count(vseq), 0u)
            << key << ": aborted txn " << vseq << " is visible";
        if (last_acked != nullptr) {
          ASSERT_GE(j.intent_pos.at(vseq), last_acked->pos)
              << key << ": acked txn " << last_acked->seq
              << " rolled back by older txn " << vseq;
        }
        present[key] = value;
      } else {
        ASSERT_TRUE(s.IsNotFound()) << key << ": " << s.ToString();
        if (last_acked != nullptr && last_acked->op == 'P') {
          // Only a possibly-durable later delete can justify the absence.
          bool later_delete = false;
          for (const KeyEvent& ev : events) {
            if (ev.pos > last_acked->pos && ev.op == 'D' &&
                !j.aborted.count(ev.seq)) {
              later_delete = true;
            }
          }
          ASSERT_TRUE(later_delete)
              << key << ": acked put (txn " << last_acked->seq << ") lost";
        }
      }
      EXPECT_TRUE(txn.Commit().ok());
    }
  }

  // ---- range scan agrees with point reads (tombstones stay invisible) ----
  {
    Transaction txn(db.get(), CcScheme::kSi);
    std::map<std::string, std::string> scanned;
    ASSERT_TRUE(txn.Scan(pk, "w", "", -1,
                         [&](const Slice& k, const Slice& v) {
                           scanned[k.ToString()] = v.ToString();
                           return true;
                         })
                    .ok());
    EXPECT_TRUE(txn.Commit().ok());
    EXPECT_EQ(scanned, present);
  }

  // ---- every CC scheme sees the same recovered state ----
  {
    int checked = 0;
    for (const auto& [key, value] : present) {
      if (++checked > 8) break;
      for (CcScheme scheme : {CcScheme::kSiSsn, CcScheme::kOcc}) {
        Transaction txn(db.get(), scheme);
        Slice v;
        ASSERT_TRUE(txn.Get(pk, key, &v).ok())
            << key << " under " << CcSchemeName(scheme);
        EXPECT_EQ(v.ToString(), value) << key;
        ASSERT_TRUE(txn.Commit().ok());
      }
      // The secondary entry rides the first insert of the key, which may
      // itself have been torn off: if it resolves, it must agree.
      Transaction txn(db.get(), CcScheme::kSi);
      Slice v;
      const Status ss = txn.Get(sec, "s" + key, &v);
      if (ss.ok()) {
        EXPECT_EQ(v.ToString(), value) << "s" << key;
      }
      EXPECT_TRUE(txn.Commit().ok());
    }
  }

  // ---- differential replay: serial recovery must agree byte-for-byte ----
  // Reopen the same directory with recovery_threads=1 (the legacy serial
  // path). Per-OID chain routing plus the checkpoint/tail barrier make the
  // parallel pipeline serial-equivalent by construction; this check pins the
  // claim on every seed's torn/checkpointed/rotated log shape.
  db.reset();
  EngineConfig serial_config = rconfig;
  serial_config.recovery_threads = 1;
  db = std::make_unique<Database>(serial_config);
  table = db->CreateTable("kv");
  pk = db->CreateIndex(table, "kv_pk");
  sec = db->CreateIndex(table, "kv_sec");
  ASSERT_TRUE(db->Open().ok());
  ASSERT_TRUE(db->Recover().ok());
  {
    Transaction txn(db.get(), CcScheme::kSi);
    std::map<std::string, std::string> scanned;
    ASSERT_TRUE(txn.Scan(pk, "w", "", -1,
                         [&](const Slice& k, const Slice& v) {
                           scanned[k.ToString()] = v.ToString();
                           return true;
                         })
                    .ok());
    EXPECT_TRUE(txn.Commit().ok());
    EXPECT_EQ(scanned, present)
        << "serial replay disagrees with parallel replay";
  }
  for (const auto& [key, value] : present) {
    Transaction txn(db.get(), CcScheme::kSi);
    Slice v;
    ASSERT_TRUE(txn.Get(pk, key, &v).ok())
        << key << " visible after parallel replay but not serial";
    EXPECT_EQ(v.ToString(), value) << key << ": serial/parallel divergence";
    ASSERT_TRUE(txn.Commit().ok());
  }

  // ---- torn-tail regression: commit after recovery, recover again ----
  // The old FindTail validated headers but not checksums, adopted a tail
  // past the torn block, and everything below was lost on this second pass.
  for (int i = 0; i < 20; ++i) {
    Transaction txn(db.get(), CcScheme::kSi);
    const std::string key = "post-crash-" + std::to_string(i);
    Oid oid = 0;
    Status s = txn.Insert(table, pk, key, "pv" + std::to_string(i), &oid);
    if (s.IsKeyExists()) {
      ASSERT_TRUE(txn.GetOid(pk, key, &oid).ok());
      ASSERT_TRUE(txn.Update(table, oid, "pv" + std::to_string(i)).ok());
    } else {
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
    ASSERT_TRUE(txn.Commit().ok()) << key;
  }
  db.reset();  // the restart: tear down fully before reopening the log
  db = std::make_unique<Database>(rconfig);
  table = db->CreateTable("kv");
  pk = db->CreateIndex(table, "kv_pk");
  sec = db->CreateIndex(table, "kv_sec");
  ASSERT_TRUE(db->Open().ok());
  ASSERT_TRUE(db->Recover().ok());
  for (int i = 0; i < 20; ++i) {
    Transaction txn(db.get(), CcScheme::kSi);
    Slice v;
    ASSERT_TRUE(txn.Get(pk, "post-crash-" + std::to_string(i), &v).ok())
        << "commit acknowledged after first recovery lost by second";
    EXPECT_EQ(v.ToString(), "pv" + std::to_string(i));
    ASSERT_TRUE(txn.Commit().ok());
  }
  // The workload keys must recover identically the second time.
  for (const auto& [key, value] : present) {
    Transaction txn(db.get(), CcScheme::kSi);
    Slice v;
    ASSERT_TRUE(txn.Get(pk, key, &v).ok()) << key << " lost on re-recovery";
    EXPECT_EQ(v.ToString(), value) << key;
    ASSERT_TRUE(txn.Commit().ok());
  }

  db.reset();
  testing::RemoveDir(dir);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CrashRecoveryHarness, ::testing::Range(0, 32));

}  // namespace
}  // namespace ermia
