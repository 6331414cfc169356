#include "ycsb_b.h"

#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using ermia::FastRandom;
using ermia::Status;
using ermia::Transaction;

Zipf::Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
  double zetan = 0;
  for (uint64_t i = 1; i <= n; ++i) zetan += 1.0 / std::pow(i, theta);
  const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
  zetan_ = zetan;
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2 / zetan);
}

uint64_t Zipf::Next(FastRandom& rng) const {
  const double u = rng.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const uint64_t k = static_cast<uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return k < n_ ? k : n_ - 1;
}

YcsbB::YcsbB(YcsbConfig cfg)
    : cfg_(cfg), zipf_(cfg.records, cfg.zipf_theta) {}

Status YcsbB::Load(ermia::Database* db) {
  table_ = db->CreateTable("usertable");
  pk_ = db->CreateIndex(table_, "usertable_pk");
  const uint32_t n = cfg_.load_threads;
  std::vector<Status> results(n);
  std::vector<std::thread> loaders;
  for (uint32_t t = 0; t < n; ++t) {
    loaders.emplace_back([this, db, n, t, &results] {
      const uint64_t lo = cfg_.records * t / n;
      const uint64_t hi = cfg_.records * (t + 1) / n;
      FastRandom rng(cfg_.seed * 0x2545f4914f6cdd1dull + t);
      std::string value(cfg_.value_size, ' ');
      std::unique_ptr<Transaction> txn;
      Status s;
      for (uint64_t k = lo; k < hi && s.ok(); ++k) {
        if (!txn) txn = std::make_unique<Transaction>(db, ermia::CcScheme::kSi);
        for (auto& c : value) c = static_cast<char>('a' + rng.UniformU64(0, 25));
        s = txn->Insert(table_, pk_, Key(k).slice(), value, nullptr);
        if (s.ok() && ((k - lo + 1) % 512 == 0 || k + 1 == hi)) {
          s = txn->Commit();
          txn.reset();
        }
      }
      txn.reset();
      results[t] = s;
      ermia::ThreadRegistry::Deregister();
    });
  }
  for (auto& l : loaders) l.join();
  for (const Status& s : results) ERMIA_RETURN_NOT_OK(s);
  return Status::OK();
}

Status YcsbB::RunTxn(ermia::Database* db, ermia::CcScheme scheme,
                     size_t /*type*/, uint32_t /*worker_id*/,
                     uint32_t /*num_workers*/, FastRandom& rng) {
  Transaction txn(db, scheme);
  for (uint32_t op = 0; op < cfg_.ops_per_txn; ++op) {
    const bool read = rng.NextDouble() < cfg_.read_fraction;
    const uint64_t k = zipf_.Next(rng);
    ermia::Oid oid = 0;
    ERMIA_RETURN_NOT_OK(txn.GetOid(pk_, Key(k).slice(), &oid));
    if (read) {
      ermia::Slice v;
      ERMIA_RETURN_NOT_OK(txn.Read(table_, oid, &v));
    } else {
      const std::string value(cfg_.value_size,
                              static_cast<char>('a' + rng.UniformU64(0, 25)));
      ERMIA_RETURN_NOT_OK(txn.Update(table_, oid, value));
    }
  }
  return txn.Commit();
}

}  // namespace perfbench
