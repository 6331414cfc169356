#include "bench/driver.h"

#include <unistd.h>

#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <thread>

#include "metrics/json.h"

namespace ermia {
namespace bench {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// Parses all of `text` as a number > 0; a malformed, zero or negative value
// is fatal, so a typo cannot silently run an empty or zero-length sweep.
template <typename T>
T ParsePositive(const char* var, std::string_view text) {
  T value{};
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size() || !(value > 0)) {
    std::fprintf(stderr, "%s: '%.*s' is not a positive number\n", var,
                 static_cast<int>(text.size()), text.data());
    std::exit(2);
  }
  return value;
}

template <typename T>
T EnvPositive(const char* var, T def) {
  const char* v = std::getenv(var);
  return v != nullptr ? ParsePositive<T>(var, v) : def;
}

}  // namespace

BenchResult RunBench(Database* db, Workload* workload,
                     const BenchOptions& options) {
  const size_t ntypes = workload->NumTxnTypes();
  std::vector<std::vector<TxnTypeStats>> per_worker(
      options.threads, std::vector<TxnTypeStats>(ntypes));

  // Make sure OCC's read-only snapshot covers whatever the loader committed.
  db->RefreshOccSnapshot();

  prof::Enable(options.profile);
  // Scope the engine metrics (and the profiling cycle counters they embed)
  // to this run by diffing snapshots around it.
  const metrics::MetricsSnapshot before = db->SnapshotMetrics();
  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};
  std::atomic<uint32_t> ready{0};

  std::vector<std::thread> workers;
  workers.reserve(options.threads);
  for (uint32_t w = 0; w < options.threads; ++w) {
    workers.emplace_back([&, w] {
      FastRandom rng(options.seed * 7919 + w * 104729 + 1);
      auto& stats = per_worker[w];
      ready.fetch_add(1);
      while (!start.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      const uint64_t t_begin = prof::Cycles();
      while (!stop.load(std::memory_order_acquire)) {
        const size_t type = workload->PickTxnType(rng);
        const uint64_t t0 = NowMicros();
        Status s = workload->RunTxn(db, options.scheme, type, w,
                                    options.threads, rng);
        if (s.ok()) {
          stats[type].commits++;
          stats[type].latency.Add(NowMicros() - t0);
        } else {
          stats[type].aborts++;
        }
      }
      // Counters live in global per-slot storage (common/profiling.h); the
      // run-scoped snapshot delta picks them up, so no per-worker merge.
      prof::Bump(prof::MyCounters().total_cycles, prof::Cycles() - t_begin);
      ThreadRegistry::Deregister();
    });
  }

  while (ready.load() < options.threads) std::this_thread::yield();
  const auto wall_begin = Clock::now();
  start.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(options.seconds));
  stop.store(true, std::memory_order_release);
  for (auto& t : workers) t.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - wall_begin).count();
  prof::Enable(false);

  BenchResult result;
  result.seconds = elapsed;
  result.threads = options.threads;
  result.per_type.resize(ntypes);
  for (size_t t = 0; t < ntypes; ++t) {
    result.type_names.push_back(workload->TxnTypeName(t));
    for (uint32_t w = 0; w < options.threads; ++w) {
      result.per_type[t].Merge(per_worker[w][t]);
    }
  }
  result.engine = db->SnapshotMetrics().DeltaSince(before);
  result.prof = result.engine.profile;
  return result;
}

JsonReporter::JsonReporter(int argc, char** argv, std::string bench_name)
    : bench_name_(std::move(bench_name)) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      path_ = argv[i + 1];
      break;
    }
  }
}

JsonReporter::~JsonReporter() {
  if (path_.empty()) return;
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "JsonReporter: cannot open %s\n", path_.c_str());
    return;
  }
  std::string doc = "{\"bench\":\"";
  doc += metrics::JsonEscape(bench_name_);
  doc += "\",\"results\":[";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) doc += ',';
    doc += "{\"label\":\"";
    doc += metrics::JsonEscape(entries_[i].first);
    doc += "\",\"result\":";
    doc += entries_[i].second;
    doc += '}';
  }
  doc += "]}\n";
  std::fwrite(doc.data(), 1, doc.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "# wrote %s\n", path_.c_str());
}

void JsonReporter::Add(const std::string& label, const BenchResult& result) {
  if (path_.empty()) return;
  entries_.emplace_back(label, result.ToJson());
}

double EnvSeconds(double def) {
  return EnvPositive("ERMIA_BENCH_SECONDS", def);
}

std::vector<uint32_t> EnvThreads(const std::vector<uint32_t>& def) {
  const char* v = std::getenv("ERMIA_BENCH_THREADS");
  if (v == nullptr) return def;
  std::vector<uint32_t> out;
  std::string_view rest(v);
  while (true) {
    const size_t comma = rest.find(',');
    out.push_back(
        ParsePositive<uint32_t>("ERMIA_BENCH_THREADS", rest.substr(0, comma)));
    if (comma == std::string_view::npos) return out;
    rest.remove_prefix(comma + 1);
  }
}

uint32_t EnvScale(uint32_t def) {
  return EnvPositive("ERMIA_BENCH_SCALE", def);
}

double EnvDensity(double def) {
  return EnvPositive("ERMIA_BENCH_DENSITY", def);
}

ScopedDatabase::ScopedDatabase(EngineConfig config) {
  // Log to tmpfs, as the paper does ("log records are written to tmpfs
  // asynchronously"); fall back to /tmp when /dev/shm is unavailable.
  char shm_tmpl[] = "/dev/shm/ermia-bench-XXXXXX";
  char tmp_tmpl[] = "/tmp/ermia-bench-XXXXXX";
  char* d = ::mkdtemp(shm_tmpl);
  if (d == nullptr) d = ::mkdtemp(tmp_tmpl);
  ERMIA_CHECK(d != nullptr);
  dir = d;
  config.log_dir = dir;
  db = new Database(config);
}

ScopedDatabase::~ScopedDatabase() {
  delete db;
  // Best-effort cleanup of the temp log directory.
  if (dir.find("ermia-bench-") != std::string::npos) {
    std::string cmd = "rm -rf '" + dir + "'";
    int rc = std::system(cmd.c_str());
    (void)rc;
  }
}

}  // namespace bench
}  // namespace ermia
