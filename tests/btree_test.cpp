// Tests for the OLC B+-tree: ordered semantics against a std::map oracle,
// splits, scans (forward/reverse), removals, node-version (phantom) hooks,
// and concurrent stress.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/key_encoder.h"
#include "common/random.h"
#include "index/btree.h"

namespace ermia {
namespace {

std::string K(uint64_t v) {
  return KeyEncoder().U64(v).slice().ToString();
}

TEST(BTreeTest, InsertLookup) {
  BTree tree;
  NodeHandle nh;
  Oid existing = 0;
  EXPECT_TRUE(tree.Insert("apple", 1, &nh, &existing).ok());
  EXPECT_TRUE(tree.Insert("banana", 2, &nh, &existing).ok());
  Oid oid = 0;
  EXPECT_TRUE(tree.Lookup("apple", &oid, &nh));
  EXPECT_EQ(oid, 1u);
  EXPECT_TRUE(tree.Lookup("banana", &oid, &nh));
  EXPECT_EQ(oid, 2u);
  EXPECT_FALSE(tree.Lookup("cherry", &oid, &nh));
}

TEST(BTreeTest, DuplicateInsertReturnsExisting) {
  BTree tree;
  NodeHandle nh;
  Oid existing = 0;
  EXPECT_TRUE(tree.Insert("k", 7, &nh, &existing).ok());
  Status s = tree.Insert("k", 8, &nh, &existing);
  EXPECT_TRUE(s.IsKeyExists());
  EXPECT_EQ(existing, 7u);
  Oid oid = 0;
  EXPECT_TRUE(tree.Lookup("k", &oid, &nh));
  EXPECT_EQ(oid, 7u);  // original mapping unchanged
}

TEST(BTreeTest, SplitsPreserveAllKeys) {
  BTree tree;
  constexpr uint64_t kN = 5000;  // many levels of splits
  NodeHandle nh;
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(tree.Insert(K(i * 7919 % kN + kN), static_cast<Oid>(i + 1),
                            &nh, nullptr)
                    .ok() ||
                true);
  }
  size_t found = 0;
  for (uint64_t i = 0; i < kN; ++i) {
    Oid oid = 0;
    if (tree.Lookup(K(i * 7919 % kN + kN), &oid, &nh)) ++found;
  }
  EXPECT_EQ(found, tree.Size());
  EXPECT_GT(tree.Size(), kN / 2);  // modular collisions dedupe some keys
}

TEST(BTreeTest, OracleEquivalenceRandomOps) {
  BTree tree;
  std::map<std::string, Oid> oracle;
  FastRandom rng(11);
  NodeHandle nh;
  for (int i = 0; i < 20000; ++i) {
    const std::string key = K(rng.UniformU64(0, 2000));
    const int op = static_cast<int>(rng.UniformU64(0, 2));
    if (op == 0) {  // insert
      const Oid oid = static_cast<Oid>(rng.UniformU64(1, 1 << 30));
      Oid existing = 0;
      Status s = tree.Insert(key, oid, &nh, &existing);
      auto [it, inserted] = oracle.emplace(key, oid);
      EXPECT_EQ(s.ok(), inserted);
      if (!inserted) {
        EXPECT_EQ(existing, it->second);
      }
    } else if (op == 1) {  // lookup
      Oid oid = 0;
      const bool found = tree.Lookup(key, &oid, &nh);
      auto it = oracle.find(key);
      EXPECT_EQ(found, it != oracle.end());
      if (found) {
        EXPECT_EQ(oid, it->second);
      }
    } else {  // remove
      Status s = tree.Remove(key);
      EXPECT_EQ(s.ok(), oracle.erase(key) > 0);
    }
  }
  EXPECT_EQ(tree.Size(), oracle.size());
  // Full scan matches the oracle's order.
  std::vector<std::pair<std::string, Oid>> scanned;
  tree.Scan(
      Slice(), Slice(),
      [&](const Slice& k, Oid o) {
        scanned.push_back({k.ToString(), o});
        return true;
      },
      nullptr);
  ASSERT_EQ(scanned.size(), oracle.size());
  auto it = oracle.begin();
  for (size_t i = 0; i < scanned.size(); ++i, ++it) {
    EXPECT_EQ(scanned[i].first, it->first);
    EXPECT_EQ(scanned[i].second, it->second);
  }
}

// Keys of length 0-12 over the bytes {0x00, 0x01, 'a', 0xff}. Half of them
// start with a prefix of one of a few 8-byte stems, so many keys share their
// first 8 bytes (tied heads), and the zero bytes make ties such as "a" vs
// "a\0" that only the full key compare can order.
std::string MixedLengthKey(FastRandom& rng,
                           const std::vector<std::string>& stems) {
  static constexpr char kBytes[] = {'\x00', '\x01', 'a', '\xff'};
  const size_t len = rng.UniformU64(0, 12);
  std::string key;
  if (rng.Bernoulli(0.5)) {
    key = stems[rng.UniformU64(0, stems.size() - 1)].substr(0, len);
  }
  while (key.size() < len) key.push_back(kBytes[rng.UniformU64(0, 3)]);
  return key;
}

TEST(BTreeTest, OracleEquivalenceMixedLengthKeys) {
  const std::vector<std::string> stems = {
      std::string(8, '\x00'), std::string("a\0\0\0\0\0\0\0", 8),
      std::string("\xff\xff\xff\xff\xff\xff\xff\xff", 8),
      std::string("a\x01\xff\0a\x01\xff\0", 8)};
  BTree tree;
  std::map<std::string, Oid> oracle;
  FastRandom rng(23);
  NodeHandle nh;
  size_t mismatches = 0;
  for (int i = 0; i < 200000; ++i) {
    const std::string key = MixedLengthKey(rng, stems);
    const int op = static_cast<int>(rng.UniformU64(0, 2));
    if (op == 0) {
      const Oid oid = static_cast<Oid>(i + 1);
      Oid existing = 0;
      const Status s = tree.Insert(key, oid, &nh, &existing);
      auto [it, inserted] = oracle.emplace(key, oid);
      if (s.ok() != inserted || (!inserted && existing != it->second)) {
        ++mismatches;
      }
    } else if (op == 1) {
      Oid oid = 0;
      const bool found = tree.Lookup(key, &oid, &nh);
      auto it = oracle.find(key);
      if (found != (it != oracle.end()) || (found && oid != it->second)) {
        ++mismatches;
      }
    } else {
      const Status s = tree.Remove(key);
      if (s.ok() != (oracle.erase(key) > 0)) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
  std::vector<std::pair<std::string, Oid>> scanned;
  tree.Scan(
      Slice(), Slice(),
      [&](const Slice& k, Oid o) {
        scanned.push_back({k.ToString(), o});
        return true;
      },
      nullptr);
  const std::vector<std::pair<std::string, Oid>> expected(oracle.begin(),
                                                         oracle.end());
  EXPECT_GT(expected.size(), 1000u);  // the tree split many times
  EXPECT_TRUE(scanned == expected);
}

TEST(BTreeTest, RangeScanBounds) {
  BTree tree;
  NodeHandle nh;
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree.Insert(K(i), static_cast<Oid>(i + 1), &nh, nullptr).ok());
  }
  std::vector<uint64_t> seen;
  tree.Scan(
      K(10), K(20),
      [&](const Slice& k, Oid) {
        seen.push_back(KeyDecoder(k).U64());
        return true;
      },
      nullptr);
  ASSERT_EQ(seen.size(), 11u);  // inclusive bounds
  EXPECT_EQ(seen.front(), 10u);
  EXPECT_EQ(seen.back(), 20u);
}

TEST(BTreeTest, ScanEarlyStop) {
  BTree tree;
  NodeHandle nh;
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree.Insert(K(i), static_cast<Oid>(i + 1), &nh, nullptr).ok());
  }
  int count = 0;
  size_t delivered = tree.Scan(
      K(0), Slice(),
      [&](const Slice&, Oid) { return ++count < 5; }, nullptr);
  EXPECT_EQ(delivered, 5u);
}

TEST(BTreeTest, ReverseScanDescends) {
  BTree tree;
  NodeHandle nh;
  for (uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(tree.Insert(K(i), static_cast<Oid>(i + 1), &nh, nullptr).ok());
  }
  std::vector<uint64_t> seen;
  tree.ScanReverse(
      K(5), K(60),
      [&](const Slice& k, Oid) {
        seen.push_back(KeyDecoder(k).U64());
        return true;
      },
      nullptr);
  ASSERT_EQ(seen.size(), 56u);
  EXPECT_EQ(seen.front(), 60u);
  EXPECT_EQ(seen.back(), 5u);
  EXPECT_TRUE(std::is_sorted(seen.rbegin(), seen.rend()));
}

TEST(BTreeTest, RemoveMissingIsNotFound) {
  BTree tree;
  EXPECT_TRUE(tree.Remove("nothing").IsNotFound());
}

TEST(BTreeTest, InsertBumpsLeafVersion) {
  BTree tree;
  NodeHandle before;
  Oid oid = 0;
  tree.Lookup("phantom", &oid, &before);  // miss registers the leaf
  NodeHandle after;
  ASSERT_TRUE(tree.Insert("phantom", 9, &after, nullptr).ok());
  // Same leaf (no split yet), strictly newer version: a committed scanner of
  // that leaf must observe the change.
  EXPECT_EQ(before.node, after.node);
  EXPECT_GT(after.version, before.version);
  EXPECT_EQ(BTree::StableVersion(before.node), after.version);
}

TEST(BTreeTest, RemoveBumpsLeafVersion) {
  BTree tree;
  NodeHandle nh;
  ASSERT_TRUE(tree.Insert("k", 1, &nh, nullptr).ok());
  const uint64_t v = BTree::StableVersion(nh.node);
  ASSERT_TRUE(tree.Remove("k").ok());
  EXPECT_GT(BTree::StableVersion(nh.node), v);
}

TEST(BTreeTest, ConcurrentInsertersAllSucceedDisjoint) {
  BTree tree;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 3000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      NodeHandle nh;
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t key = static_cast<uint64_t>(t) * kPerThread + i;
        ASSERT_TRUE(
            tree.Insert(K(key), static_cast<Oid>(key + 1), &nh, nullptr).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(tree.Size(), kThreads * kPerThread);
  NodeHandle nh;
  for (uint64_t key = 0; key < kThreads * kPerThread; ++key) {
    Oid oid = 0;
    ASSERT_TRUE(tree.Lookup(K(key), &oid, &nh)) << key;
    ASSERT_EQ(oid, key + 1);
  }
}

TEST(BTreeTest, ConcurrentReadersDuringInserts) {
  BTree tree;
  NodeHandle nh;
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree.Insert(K(i * 2), static_cast<Oid>(i + 1), &nh, nullptr).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad{0};
  std::thread reader([&] {
    NodeHandle h;
    while (!stop.load()) {
      // Pre-loaded even keys must always be found with correct values.
      FastRandom rng(3);
      for (int i = 0; i < 100; ++i) {
        const uint64_t k = rng.UniformU64(0, 999);
        Oid oid = 0;
        if (!tree.Lookup(K(k * 2), &oid, &h) || oid != k + 1) bad.fetch_add(1);
      }
      // Scans must deliver even keys in order.
      uint64_t prev = 0;
      bool first = true;
      tree.Scan(
          Slice(), Slice(),
          [&](const Slice& key, Oid) {
            const uint64_t v = KeyDecoder(key).U64();
            if (!first && v <= prev) bad.fetch_add(1);
            prev = v;
            first = false;
            return true;
          },
          nullptr);
    }
  });
  std::thread writer([&] {
    NodeHandle h;
    for (uint64_t i = 0; i < 2000; ++i) {
      tree.Insert(K(i * 2 + 1), static_cast<Oid>(i + 1), &h, nullptr);
    }
    stop.store(true);
  });
  writer.join();
  reader.join();
  EXPECT_EQ(bad.load(), 0u);
}

TEST(BTreeTest, LongKeysNearLimit) {
  BTree tree;
  NodeHandle nh;
  std::string key(kMaxKeySize - 1, 'a');
  ASSERT_TRUE(tree.Insert(key, 5, &nh, nullptr).ok());
  std::string key2 = key;
  key2.back() = 'b';
  ASSERT_TRUE(tree.Insert(key2, 6, &nh, nullptr).ok());
  Oid oid = 0;
  EXPECT_TRUE(tree.Lookup(key, &oid, &nh));
  EXPECT_EQ(oid, 5u);
  int n = 0;
  tree.Scan(
      key, key2, [&](const Slice&, Oid) { return ++n, true; }, nullptr);
  EXPECT_EQ(n, 2);
}

}  // namespace
}  // namespace ermia
