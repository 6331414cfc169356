#include "probes.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/profiling.h"

namespace perfbench {

using ermia::Database;
using ermia::Oid;
using ermia::Slice;
using ermia::Status;
using ermia::Transaction;
namespace tpcc = ermia::tpcc;

namespace {

// Median over `batches` of the mean time of `per_batch` calls of fn(i), with
// i counting calls from 0.
template <typename Fn>
double MedianNs(size_t batches, size_t per_batch, Fn&& fn) {
  const double cycles_per_ns = ermia::prof::CyclesPerNs();
  std::vector<double> per_op;
  per_op.reserve(batches);
  size_t i = 0;
  for (size_t b = 0; b < batches; ++b) {
    const uint64_t t0 = ermia::prof::Cycles();
    for (size_t j = 0; j < per_batch; ++j) fn(i++);
    const uint64_t t1 = ermia::prof::Cycles();
    per_op.push_back(static_cast<double>(t1 - t0) / cycles_per_ns /
                     static_cast<double>(per_batch));
  }
  if (per_op.empty()) return 0;
  std::nth_element(per_op.begin(), per_op.begin() + per_op.size() / 2,
                   per_op.end());
  return per_op[per_op.size() / 2];
}

// Median BTree::Lookup time over random existing keys of the primary index
// with the most entries.
double ProbeLookup(Database* db, uint64_t seed) {
  const ermia::BTree* tree = nullptr;
  size_t entries = 0;
  for (ermia::Table* t : db->tables()) {
    if (t->indexes().empty()) continue;
    const ermia::BTree& pk = t->indexes()[0]->tree();
    const size_t n = pk.Size();
    if (n > entries) {
      entries = n;
      tree = &pk;
    }
  }
  if (tree == nullptr) return 0;
  constexpr size_t kKeys = 20000;
  const size_t stride = std::max<size_t>(1, entries / kKeys);
  std::vector<ermia::Varstr> keys;
  size_t seen = 0;
  tree->Scan(
      Slice(), Slice(),
      [&](const Slice& key, Oid) {
        if (seen++ % stride == 0) keys.emplace_back(key);
        return true;
      },
      nullptr);
  ermia::FastRandom rng(seed);
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.UniformU64(0, i - 1)]);
  }
  constexpr size_t kPerBatch = 100;
  return MedianNs(keys.size() / kPerBatch, kPerBatch, [&](size_t i) {
    Oid oid = 0;
    ermia::NodeHandle handle;
    tree->Lookup(keys[i].slice(), &oid, &handle);
  });
}

// Index entries BTree::Scan visits per row Transaction::ScanOids returns,
// over every district's NewOrder range. Delivery deletes NewOrder rows, which
// leaves their keys in the tree, so this grows as the database ages.
Status ProbeScanKeysPerRow(Transaction& pin, const tpcc::TpccWorkload& w,
                           double* out) {
  const tpcc::TpccTables& t = w.tables();
  uint64_t entries = 0;
  uint64_t rows = 0;
  for (uint32_t wh = 1; wh <= w.config().warehouses; ++wh) {
    for (uint32_t d = 1; d <= w.config().districts(); ++d) {
      const ermia::Varstr lo = tpcc::NewOrderKey(wh, d, 0);
      const ermia::Varstr hi = tpcc::NewOrderKey(wh, d, UINT32_MAX);
      entries += t.neworder_pk->tree().Scan(
          lo.slice(), hi.slice(), [](const Slice&, Oid) { return true; },
          nullptr);
      ERMIA_RETURN_NOT_OK(pin.ScanOids(t.neworder_pk, lo.slice(), hi.slice(),
                                       -1, [&](const Slice&, Oid) {
                                         ++rows;
                                         return true;
                                       }));
    }
  }
  *out = rows == 0 ? 0 : static_cast<double>(entries) / static_cast<double>(rows);
  return Status::OK();
}

Status ResolveRows(Transaction& txn, const std::vector<RowRef>& refs,
                   std::vector<std::pair<ermia::Table*, Oid>>* rows) {
  for (const RowRef& r : refs) {
    Oid oid = 0;
    ERMIA_RETURN_NOT_OK(txn.GetOid(r.index, r.key.slice(), &oid));
    rows->emplace_back(r.index->table(), oid);
  }
  return Status::OK();
}

}  // namespace

Status RunProbes(Database* db, ermia::CcScheme scheme, uint64_t seed,
                 const std::vector<RowRef>& hot, const RowRef& cold,
                 const tpcc::TpccWorkload* tpcc, ProbeResult* out) {
  db->RefreshOccSnapshot();
  {
    Transaction pin(db, scheme, /*read_only=*/true);
    out->lookup_ns = ProbeLookup(db, seed);
    if (tpcc != nullptr) {
      ERMIA_RETURN_NOT_OK(
          ProbeScanKeysPerRow(pin, *tpcc, &out->scan_keys_per_row));
    }
    std::vector<std::pair<ermia::Table*, Oid>> rows;
    ERMIA_RETURN_NOT_OK(ResolveRows(pin, hot, &rows));
    uint64_t versions = 0;
    for (const auto& [table, oid] : rows) {
      for (ermia::Version* v = table->array().Head(oid); v != nullptr;
           v = v->next.load(std::memory_order_acquire)) {
        ++versions;
      }
    }
    out->hot_chain_len =
        static_cast<double>(versions) / static_cast<double>(rows.size());
    Status read_status;
    out->hot_read_ns = MedianNs(100, rows.size(), [&](size_t i) {
      const auto& [table, oid] = rows[i % rows.size()];
      Slice value;
      Status s = pin.Read(table, oid, &value);
      if (!s.ok()) read_status = s;
    });
    ERMIA_RETURN_NOT_OK(read_status);
    ERMIA_RETURN_NOT_OK(pin.Commit());
  }

  out->begin_commit_ro_ns = MedianNs(200, 10, [&](size_t) {
    Transaction txn(db, scheme, /*read_only=*/true);
    txn.Commit();
  });

  std::vector<std::pair<ermia::Table*, Oid>> cold_row;
  {
    Transaction txn(db, scheme, /*read_only=*/true);
    ERMIA_RETURN_NOT_OK(ResolveRows(txn, {cold}, &cold_row));
    ERMIA_RETURN_NOT_OK(txn.Commit());
  }
  const auto [table, oid] = cold_row[0];
  Status update_status;
  std::string bytes;
  out->begin_commit_update_ns = MedianNs(100, 10, [&](size_t) {
    Transaction txn(db, scheme);
    Slice value;
    Status s = txn.Read(table, oid, &value);
    if (s.ok()) {
      bytes.assign(value.data(), value.size());
      s = txn.Update(table, oid, bytes);
    }
    if (s.ok()) s = txn.Commit();
    if (!s.ok()) update_status = s;
  });
  return update_status;
}

Status CheckTpcc(Database* db, ermia::CcScheme scheme,
                 const tpcc::TpccWorkload& w) {
  const tpcc::TpccTables& t = w.tables();
  Transaction txn(db, scheme, /*read_only=*/true);
  // Largest third key component in [lo, hi], or 0 if the range is empty.
  auto max_id = [&](ermia::Index* index, const ermia::Varstr& lo,
                    const ermia::Varstr& hi, uint32_t* id) {
    *id = 0;
    return txn.ScanOids(
        index, lo.slice(), hi.slice(), 1,
        [&](const Slice& key, Oid) {
          ermia::KeyDecoder dec(key);
          dec.U32();
          dec.U32();
          *id = dec.U32();
          return false;
        },
        /*reverse=*/true);
  };
  for (uint32_t wh = 1; wh <= w.config().warehouses; ++wh) {
    Slice raw;
    tpcc::WarehouseRow wrow;
    ERMIA_RETURN_NOT_OK(txn.Get(t.warehouse_pk, tpcc::WarehouseKey(wh).slice(),
                                &raw));
    if (!tpcc::LoadRow(raw, &wrow)) return Status::Corruption("warehouse row");
    double d_ytd = 0;
    for (uint32_t d = 1; d <= w.config().districts(); ++d) {
      tpcc::DistrictRow drow;
      ERMIA_RETURN_NOT_OK(
          txn.Get(t.district_pk, tpcc::DistrictKey(wh, d).slice(), &raw));
      if (!tpcc::LoadRow(raw, &drow)) return Status::Corruption("district row");
      d_ytd += drow.d_ytd;
      const std::string where =
          " (w=" + std::to_string(wh) + " d=" + std::to_string(d) + ")";
      const uint32_t next = static_cast<uint32_t>(drow.d_next_o_id);
      uint32_t o_max = 0;
      ERMIA_RETURN_NOT_OK(max_id(t.order_pk, tpcc::OrderKey(wh, d, 0),
                                 tpcc::OrderKey(wh, d, UINT32_MAX), &o_max));
      if (o_max + 1 != next) {
        return Status::Corruption("d_next_o_id " + std::to_string(next) +
                                  " != max(o_id) + 1 = " +
                                  std::to_string(o_max + 1) + where);
      }
      uint32_t no_max = 0;
      ERMIA_RETURN_NOT_OK(max_id(t.neworder_pk, tpcc::NewOrderKey(wh, d, 0),
                                 tpcc::NewOrderKey(wh, d, UINT32_MAX),
                                 &no_max));
      if (no_max != 0 && no_max != o_max) {
        return Status::Corruption("max(no_o_id) " + std::to_string(no_max) +
                                  " != max(o_id) " + std::to_string(o_max) +
                                  where);
      }
    }
    if (std::fabs(wrow.w_ytd - d_ytd) > 1e-9 * std::fabs(wrow.w_ytd)) {
      return Status::Corruption("w_ytd " + std::to_string(wrow.w_ytd) +
                                " != sum(d_ytd) " + std::to_string(d_ytd) +
                                " (w=" + std::to_string(wh) + ")");
    }
  }
  return txn.Commit();
}

Status CheckYcsb(Database* db, ermia::CcScheme scheme, const YcsbB& ycsb) {
  db->RefreshOccSnapshot();
  Transaction txn(db, scheme, /*read_only=*/true);
  const YcsbConfig& cfg = ycsb.config();
  uint64_t next = 0;
  Status bad;
  ERMIA_RETURN_NOT_OK(txn.Scan(
      ycsb.pk(), YcsbB::Key(0).slice(), Slice(), -1,
      [&](const Slice& key, const Slice& value) {
        const uint64_t k = ermia::KeyDecoder(key).U64();
        if (k != next || value.size() != cfg.value_size) {
          bad = Status::Corruption("key " + std::to_string(k) + " (expected " +
                                   std::to_string(next) + ") has " +
                                   std::to_string(value.size()) + " bytes");
          return false;
        }
        ++next;
        return true;
      }));
  ERMIA_RETURN_NOT_OK(bad);
  if (next != cfg.records) {
    return Status::Corruption("found " + std::to_string(next) + " of " +
                              std::to_string(cfg.records) + " records");
  }
  return txn.Commit();
}

}  // namespace perfbench
