// Ablation: OLC B+-tree throughput — point lookups, inserts, scans, and
// mixed read/write, single- and multi-threaded (the index is Fig. 11's
// largest component, so its constants matter). Lookups run at 100K keys, at
// YCSB scale (4M 8-byte keys, decided by the 8-byte key heads), and over
// 16-byte TPC-C order-line keys whose heads tie within a district.
#include <benchmark/benchmark.h>

#include <atomic>

#include "common/key_encoder.h"
#include "common/random.h"
#include "common/varstr.h"
#include "index/btree.h"

namespace {

using namespace ermia;

constexpr uint64_t kPreload = 100000;
// YCSB scale: the ycsb-b-occ benchmark table holds 4M records.
constexpr uint64_t kLargePreload = 4000000;
// 16-byte keys shaped like TPC-C order lines (warehouse, district, order,
// line): every key of one district shares its first 8 bytes, so node searches
// tie on the 8-byte key heads and fall back to the full key compare.
constexpr uint32_t kOlDistricts = 30;  // 3 warehouses x 10 districts
constexpr uint32_t kOlPerDistrict = 30000;  // 3000 orders x 10 lines
constexpr uint64_t kOlKeys = uint64_t{kOlDistricts} * kOlPerDistrict;

Varstr U64Key(uint64_t i) { return KeyEncoder().U64(i).varstr(); }

Varstr OrderLineKey(uint64_t i) {
  const uint32_t district = static_cast<uint32_t>(i / kOlPerDistrict);
  const uint32_t line = static_cast<uint32_t>(i % kOlPerDistrict);
  return KeyEncoder()
      .U32(district / 10 + 1)
      .U32(district % 10 + 1)
      .U32(line / 10 + 1)
      .U32(line % 10 + 1)
      .varstr();
}

// Loads keys key(0..n-1) in order; the trees live until the process exits.
BTree* LoadTree(uint64_t n, Varstr (*key)(uint64_t)) {
  auto* tree = new BTree();
  NodeHandle nh;
  for (uint64_t i = 0; i < n; ++i) {
    tree->Insert(key(i).slice(), static_cast<Oid>(i + 1), &nh, nullptr);
  }
  return tree;
}

BTree* SharedTree() {
  static BTree* tree = LoadTree(kPreload, &U64Key);
  return tree;
}

BTree* LargeTree() {
  static BTree* tree = LoadTree(kLargePreload, &U64Key);
  return tree;
}

BTree* OrderLineTree() {
  static BTree* tree = LoadTree(kOlKeys, &OrderLineKey);
  return tree;
}

// Uniform random point lookups of keys key(0..n-1), all present.
void RunLookups(benchmark::State& state, const BTree* tree, uint64_t n,
                Varstr (*key)(uint64_t)) {
  FastRandom rng(state.thread_index() + 1);
  NodeHandle nh;
  for (auto _ : state) {
    Oid oid = 0;
    benchmark::DoNotOptimize(
        tree->Lookup(key(rng.UniformU64(0, n - 1)).slice(), &oid, &nh));
  }
}

void BM_Lookup(benchmark::State& state) {
  RunLookups(state, SharedTree(), kPreload, &U64Key);
}
BENCHMARK(BM_Lookup)->Threads(1)->Threads(2)->Threads(4);

void BM_Lookup4M(benchmark::State& state) {
  RunLookups(state, LargeTree(), kLargePreload, &U64Key);
}
BENCHMARK(BM_Lookup4M)->Threads(1)->Threads(4);

void BM_LookupOrderLine16B(benchmark::State& state) {
  RunLookups(state, OrderLineTree(), kOlKeys, &OrderLineKey);
}
BENCHMARK(BM_LookupOrderLine16B)->Threads(1)->Threads(4);

void BM_Insert(benchmark::State& state) {
  static BTree tree;
  static std::atomic<uint64_t> next{0};
  NodeHandle nh;
  for (auto _ : state) {
    const uint64_t k = next.fetch_add(1, std::memory_order_relaxed);
    tree.Insert(KeyEncoder().U64(k).slice(), static_cast<Oid>(k + 1), &nh,
                nullptr);
  }
}
BENCHMARK(BM_Insert)->Threads(1)->Threads(2)->Threads(4);

void BM_Scan100(benchmark::State& state) {
  BTree* tree = SharedTree();
  FastRandom rng(7);
  for (auto _ : state) {
    const uint64_t from = rng.UniformU64(0, kPreload - 200);
    size_t n = 0;
    tree->Scan(
        KeyEncoder().U64(from).slice(), KeyEncoder().U64(from + 99).slice(),
        [&](const Slice&, Oid) {
          ++n;
          return true;
        },
        nullptr);
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 100);
}
BENCHMARK(BM_Scan100);

void BM_MixedReadInsert(benchmark::State& state) {
  static BTree tree;
  static std::atomic<uint64_t> next{1u << 20};
  FastRandom rng(state.thread_index() + 3);
  NodeHandle nh;
  for (auto _ : state) {
    if (rng.Bernoulli(0.2)) {
      const uint64_t k = next.fetch_add(1, std::memory_order_relaxed);
      tree.Insert(KeyEncoder().U64(k).slice(), static_cast<Oid>(k), &nh,
                  nullptr);
    } else {
      Oid oid = 0;
      const uint64_t hi = next.load(std::memory_order_relaxed);
      benchmark::DoNotOptimize(tree.Lookup(
          KeyEncoder().U64((1u << 20) + rng.UniformU64(0, hi - (1u << 20)))
              .slice(),
          &oid, &nh));
    }
  }
}
BENCHMARK(BM_MixedReadInsert)->Threads(1)->Threads(2)->Threads(4);

}  // namespace

BENCHMARK_MAIN();
