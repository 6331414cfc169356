// Heterogeneous-workload demo — the paper's motivating scenario in ~150
// lines. Short write-intensive "order" transactions run alongside a long
// read-mostly "analytics" transaction that scans the whole inventory and
// restocks a few items. Under Silo-style OCC the analytics transaction
// starves (its read set keeps being overwritten before it can validate);
// under ERMIA-SI/SSN it coexists with the writers.
//
//   $ ./build/examples/heterogeneous_analytics
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/key_encoder.h"
#include "common/random.h"
#include "engine/database.h"

using namespace ermia;

namespace {

constexpr int kItems = 5000;
constexpr int kWriters = 3;
constexpr auto kRunFor = std::chrono::milliseconds(800);

Varstr ItemKey(uint32_t i) { return KeyEncoder().U32(i).varstr(); }

struct Inventory {
  Table* items;
  Index* pk;
};

void RunScheme(Database* db, const Inventory& inv, CcScheme scheme) {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> orders{0}, order_aborts{0};
  std::atomic<uint64_t> reports{0}, report_aborts{0};

  // Short write-intensive transactions: decrement a random item's stock.
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      FastRandom rng(w + 1);
      while (!stop.load(std::memory_order_acquire)) {
        Transaction txn(db, scheme);
        const uint32_t item =
            static_cast<uint32_t>(rng.UniformU64(0, kItems - 1));
        Oid oid = 0;
        Slice v;
        if (txn.GetOid(inv.pk, ItemKey(item).slice(), &oid).ok() &&
            txn.Read(inv.items, oid, &v).ok()) {
          int32_t qty = 0;
          std::memcpy(&qty, v.data(), sizeof qty);
          qty -= 1;
          if (txn.Update(inv.items, oid,
                         Slice(reinterpret_cast<char*>(&qty), sizeof qty))
                  .ok() &&
              txn.Commit().ok()) {
            orders.fetch_add(1);
            continue;
          }
        }
        if (!txn.finished()) txn.Abort();
        order_aborts.fetch_add(1);
      }
      ThreadRegistry::Deregister();
    });
  }

  // The long read-mostly analytics transaction: scan everything, restock the
  // lowest items (a few writes, so OCC cannot push it to a read-only
  // snapshot).
  std::thread analyst([&] {
    FastRandom rng(42);
    while (!stop.load(std::memory_order_acquire)) {
      Transaction txn(db, scheme);
      std::vector<Oid> low;
      Status s = txn.Scan(inv.pk, Slice(), Slice(), -1,
                          [&](const Slice&, const Slice& v) {
                            int32_t qty = 0;
                            std::memcpy(&qty, v.data(), sizeof qty);
                            return true;
                          });
      if (s.ok()) {
        // Restock one random item: makes this a read-write transaction.
        Oid oid = 0;
        const uint32_t item =
            static_cast<uint32_t>(rng.UniformU64(0, kItems - 1));
        int32_t qty = 1000;
        if (txn.GetOid(inv.pk, ItemKey(item).slice(), &oid).ok() &&
            txn.Update(inv.items, oid,
                       Slice(reinterpret_cast<char*>(&qty), sizeof qty))
                .ok() &&
            txn.Commit().ok()) {
          reports.fetch_add(1);
          continue;
        }
      }
      if (!txn.finished()) txn.Abort();
      report_aborts.fetch_add(1);
    }
    ThreadRegistry::Deregister();
  });

  std::this_thread::sleep_for(kRunFor);
  stop.store(true);
  for (auto& t : writers) t.join();
  analyst.join();

  const double report_attempts =
      static_cast<double>(reports.load() + report_aborts.load());
  std::printf(
      "%-10s  orders: %6llu committed, %5llu aborted | analytics: %4llu "
      "committed, %4llu aborted (%.0f%% starved)\n",
      CcSchemeName(scheme), static_cast<unsigned long long>(orders.load()),
      static_cast<unsigned long long>(order_aborts.load()),
      static_cast<unsigned long long>(reports.load()),
      static_cast<unsigned long long>(report_aborts.load()),
      report_attempts > 0 ? 100.0 * report_aborts.load() / report_attempts
                          : 0.0);
}

}  // namespace

int main() {
  std::printf("heterogeneous workload: %d writer threads vs 1 analytics "
              "thread over %d items\n\n", kWriters, kItems);
  for (CcScheme scheme : {CcScheme::kOcc, CcScheme::kSi, CcScheme::kSiSsn}) {
    EngineConfig config;  // in-memory log
    Database db(config);
    Table* items = db.CreateTable("items");
    Index* pk = db.CreateIndex(items, "items_pk");
    if (!db.Open().ok()) return 1;
    {
      Transaction txn(&db, CcScheme::kSi);
      for (uint32_t i = 0; i < kItems; ++i) {
        int32_t qty = 500;
        if (!txn.Insert(items, pk, ItemKey(i).slice(),
                        Slice(reinterpret_cast<char*>(&qty), sizeof qty),
                        nullptr)
                 .ok()) {
          return 1;
        }
      }
      if (!txn.Commit().ok()) return 1;
    }
    RunScheme(&db, {items, pk}, scheme);
    db.Close();
  }
  std::printf(
      "\nExpected: OCC commits few analytics transactions (writers keep\n"
      "overwriting its read set before it validates); ERMIA commits them\n"
      "while sustaining the writers — the paper's fairness argument.\n");
  return 0;
}
