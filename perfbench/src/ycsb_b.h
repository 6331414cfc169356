// YCSB-B for the benchmark: one table of fixed-size records, transactions of
// `ops_per_txn` operations, each a read (95%) or an update (5%) of a key drawn
// from a Zipfian distribution. Unlike workloads/ycsb, every random choice,
// the key stream included, comes from the worker's generator, so the run is a
// function of the seed and a retried attempt replays its inputs exactly. The
// loader splits the key range over several threads.
#ifndef ERMIA_PERFBENCH_YCSB_B_H_
#define ERMIA_PERFBENCH_YCSB_B_H_

#include <cstdint>

#include "bench/driver.h"
#include "common/key_encoder.h"

namespace perfbench {

struct YcsbConfig {
  uint64_t records = 4000000;
  uint32_t value_size = 100;
  uint32_t ops_per_txn = 10;
  double zipf_theta = 0.8;
  double read_fraction = 0.95;
  uint32_t load_threads = 3;
  uint64_t seed = 1;  // record contents
};

// Zipfian ranks in [0, n) (Gray et al., as in YCSB), drawn from a caller's
// generator; rank 0 is the hottest key.
class Zipf {
 public:
  Zipf(uint64_t n, double theta);
  uint64_t Next(ermia::FastRandom& rng) const;

 private:
  uint64_t n_;
  double theta_, zetan_, alpha_, eta_;
};

class YcsbB : public ermia::bench::Workload {
 public:
  explicit YcsbB(YcsbConfig cfg);

  ermia::Status Load(ermia::Database* db) override;
  size_t NumTxnTypes() const override { return 1; }
  const char* TxnTypeName(size_t) const override { return "YCSB-B"; }
  size_t PickTxnType(ermia::FastRandom&) const override { return 0; }
  ermia::Status RunTxn(ermia::Database* db, ermia::CcScheme scheme,
                       size_t type, uint32_t worker_id, uint32_t num_workers,
                       ermia::FastRandom& rng) override;

  const YcsbConfig& config() const { return cfg_; }
  ermia::Table* table() const { return table_; }
  ermia::Index* pk() const { return pk_; }

  static ermia::Varstr Key(uint64_t k) {
    return ermia::KeyEncoder().U64(k).varstr();
  }

 private:
  YcsbConfig cfg_;
  Zipf zipf_;
  ermia::Table* table_ = nullptr;
  ermia::Index* pk_ = nullptr;
};

}  // namespace perfbench

#endif  // ERMIA_PERFBENCH_YCSB_B_H_
