// The five TPC-C transactions (TPC-C v5.11 §2), implemented against the
// engine's public API. Every function runs one transaction to completion:
// a non-OK return means the transaction was aborted (the Transaction
// destructor rolls back anything in flight).
#include "workloads/tpcc/tpcc_workload.h"

namespace ermia {
namespace tpcc {

namespace {

// Expected-row read: NotFound here means our snapshot raced with a concurrent
// writer in a way the CC scheme will surface anyway; treat it as an abort.
template <typename Row>
Status ReadRow(Transaction& txn, Index* index, const Varstr& key, Row* row,
               Oid* oid = nullptr) {
  Oid o = 0;
  ERMIA_RETURN_NOT_OK(txn.GetOid(index, key.slice(), &o));
  Slice raw;
  ERMIA_RETURN_NOT_OK(txn.Read(index->table(), o, &raw));
  if (!LoadRow(raw, row)) return Status::Corruption("row size mismatch");
  if (oid != nullptr) *oid = o;
  return Status::OK();
}

// 60/40 customer selection by last name / by id (TPC-C 2.5.1.2, 2.6.1.2).
Status SelectCustomer(TpccCtx& ctx, Transaction& txn, uint32_t w, uint32_t d,
                      CustomerRow* row, Oid* oid, uint32_t* c_id) {
  const TpccTables& t = *ctx.t;
  const uint32_t C = ctx.cfg->customers_per_district();
  if (ctx.rng->Bernoulli(0.6)) {
    // By last name: fetch all matches, pick the middle one (spec: n/2).
    const std::string last = LastName(static_cast<uint32_t>(
        ctx.rng->NURand(255, 0, std::min<uint32_t>(999, C - 1))));
    Varstr prefix = CustomerNamePrefix(w, d, last);
    // The prefix is a strict prefix of all matching keys; keys are prefix +
    // first-name + id, so scanning [prefix, prefix+0xff...] covers them.
    KeyEncoder hi_enc;
    hi_enc.Str(Slice(prefix.data(), prefix.size()), prefix.size());
    hi_enc.Str(Slice("\xff\xff\xff\xff\xff\xff\xff\xff", 8), 8);
    std::vector<std::pair<Oid, uint32_t>> matches;  // (oid, c_id)
    ERMIA_RETURN_NOT_OK(txn.ScanOids(
        t.customer_name, prefix.slice(), hi_enc.slice(), -1,
        [&](const Slice& key, Oid o) {
          // The name-index key ends with the customer id.
          KeyDecoder dec(Slice(key.data() + key.size() - 4, 4));
          matches.push_back({o, dec.U32()});
          return true;
        }));
    if (matches.empty()) return Status::NotFound("no customer by name");
    const auto& [o, id] = matches[matches.size() / 2];  // spec: ceil(n/2)
    Slice raw;
    ERMIA_RETURN_NOT_OK(txn.Read(t.customer, o, &raw));
    if (!LoadRow(raw, row)) return Status::Corruption("customer row");
    *oid = o;
    *c_id = id;
    return Status::OK();
  }
  const uint32_t c = static_cast<uint32_t>(ctx.rng->NURand(1023, 1, C));
  *c_id = c;
  return ReadRow(txn, t.customer_pk, CustomerKey(w, d, c), row, oid);
}

}  // namespace

uint32_t PickHomeWarehouse(const TpccCtx& ctx) {
  const uint32_t W = ctx.cfg->warehouses;
  switch (ctx.policy) {
    case PartitionPolicy::kLocal:
      return (ctx.worker % W) + 1;
    case PartitionPolicy::kUniform:
      return static_cast<uint32_t>(ctx.rng->UniformU64(1, W));
    case PartitionPolicy::kSkewed8020: {
      // 80% of transactions target the first 20% of warehouses.
      const uint32_t hot = std::max<uint32_t>(1, W / 5);
      if (ctx.rng->Bernoulli(0.8)) {
        return static_cast<uint32_t>(ctx.rng->UniformU64(1, hot));
      }
      return static_cast<uint32_t>(
          ctx.rng->UniformU64(std::min(W, hot + 1), W));
    }
  }
  return 1;
}

// --- NewOrder (TPC-C 2.4): mid-weight read-write, ~1% cross-partition. -----
Status TxnNewOrder(TpccCtx& ctx) {
  const TpccTables& t = *ctx.t;
  const uint32_t W = ctx.cfg->warehouses;
  const uint32_t w = PickHomeWarehouse(ctx);
  const uint32_t d =
      static_cast<uint32_t>(ctx.rng->UniformU64(1, ctx.cfg->districts()));
  const uint32_t c = static_cast<uint32_t>(
      ctx.rng->NURand(1023, 1, ctx.cfg->customers_per_district()));
  const uint32_t ol_cnt = static_cast<uint32_t>(ctx.rng->UniformU64(5, 15));
  const bool rollback = ctx.rng->Bernoulli(0.01);  // 2.4.1.4: invalid item

  Transaction txn(ctx.db, ctx.scheme);

  WarehouseRow wr;
  ERMIA_RETURN_NOT_OK(ReadRow(txn, t.warehouse_pk, WarehouseKey(w), &wr));
  CustomerRow cr;
  ERMIA_RETURN_NOT_OK(ReadRow(txn, t.customer_pk, CustomerKey(w, d, c), &cr));

  DistrictRow dr;
  Oid d_oid = 0;
  ERMIA_RETURN_NOT_OK(ReadRow(txn, t.district_pk, DistrictKey(w, d), &dr, &d_oid));
  const uint32_t o_id = static_cast<uint32_t>(dr.d_next_o_id);
  dr.d_next_o_id++;
  ERMIA_RETURN_NOT_OK(txn.Update(t.district, d_oid, RowSlice(dr)));

  OrderRow orow{};
  orow.o_c_id = static_cast<int32_t>(c);
  orow.o_carrier_id = 0;
  orow.o_ol_cnt = static_cast<int32_t>(ol_cnt);
  orow.o_all_local = 1;
  orow.o_entry_d = o_id;
  Oid o_oid = 0;
  ERMIA_RETURN_NOT_OK(txn.Insert(t.order, t.order_pk,
                                 OrderKey(w, d, o_id).slice(), RowSlice(orow),
                                 &o_oid));
  ERMIA_RETURN_NOT_OK(txn.InsertIndexEntry(
      t.order_cust, OrderCustKey(w, d, c, o_id).slice(), o_oid));
  NewOrderRow nr{};
  nr.no_o_id = static_cast<int32_t>(o_id);
  ERMIA_RETURN_NOT_OK(txn.Insert(t.neworder, t.neworder_pk,
                                 NewOrderKey(w, d, o_id).slice(), RowSlice(nr),
                                 nullptr));

  for (uint32_t ol = 1; ol <= ol_cnt; ++ol) {
    uint32_t i_id =
        static_cast<uint32_t>(ctx.rng->NURand(8191, 1, ctx.cfg->items()));
    if (rollback && ol == ol_cnt) i_id = ctx.cfg->items() + 1;  // unused item
    // 1% of lines are supplied by a remote warehouse (cross-partition).
    uint32_t supply_w = w;
    if (W > 1 && ctx.rng->Bernoulli(0.01)) {
      do {
        supply_w = static_cast<uint32_t>(ctx.rng->UniformU64(1, W));
      } while (supply_w == w);
      orow.o_all_local = 0;
    }

    ItemRow ir;
    Status is = ReadRow(txn, t.item_pk, ItemKey(i_id), &ir);
    if (is.IsNotFound()) {
      // Intentional rollback path (counts as an abort, per the spec's 1%).
      txn.Abort();
      return Status::Aborted("neworder rollback (invalid item)");
    }
    ERMIA_RETURN_NOT_OK(is);

    StockRow sr;
    Oid s_oid = 0;
    ERMIA_RETURN_NOT_OK(
        ReadRow(txn, t.stock_pk, StockKey(supply_w, i_id), &sr, &s_oid));
    const int32_t qty = static_cast<int32_t>(ctx.rng->UniformU64(1, 10));
    if (sr.s_quantity - qty >= 10) {
      sr.s_quantity -= qty;
    } else {
      sr.s_quantity = sr.s_quantity - qty + 91;
    }
    sr.s_ytd += qty;
    sr.s_order_cnt++;
    if (supply_w != w) sr.s_remote_cnt++;
    ERMIA_RETURN_NOT_OK(txn.Update(t.stock, s_oid, RowSlice(sr)));

    OrderLineRow lr{};
    lr.ol_i_id = static_cast<int32_t>(i_id);
    lr.ol_supply_w_id = static_cast<int32_t>(supply_w);
    lr.ol_quantity = qty;
    lr.ol_amount = qty * ir.i_price;
    lr.ol_delivery_d = 0;
    std::memcpy(lr.ol_dist_info, sr.s_dist[d - 1], sizeof lr.ol_dist_info);
    ERMIA_RETURN_NOT_OK(txn.Insert(t.orderline, t.orderline_pk,
                                   OrderLineKey(w, d, o_id, ol).slice(),
                                   RowSlice(lr), nullptr));
  }
  return txn.Commit();
}

// --- Payment (TPC-C 2.5): light read-write, 15% cross-partition. -----------
Status TxnPayment(TpccCtx& ctx) {
  const TpccTables& t = *ctx.t;
  const uint32_t W = ctx.cfg->warehouses;
  const uint32_t w = PickHomeWarehouse(ctx);
  const uint32_t d =
      static_cast<uint32_t>(ctx.rng->UniformU64(1, ctx.cfg->districts()));
  const double amount = 1.0 + ctx.rng->NextDouble() * 4999.0;

  // 15% remote customer (2.5.1.2).
  uint32_t c_w = w, c_d = d;
  if (W > 1 && ctx.rng->Bernoulli(0.15)) {
    do {
      c_w = static_cast<uint32_t>(ctx.rng->UniformU64(1, W));
    } while (c_w == w);
    c_d = static_cast<uint32_t>(ctx.rng->UniformU64(1, ctx.cfg->districts()));
  }

  Transaction txn(ctx.db, ctx.scheme);

  WarehouseRow wr;
  Oid w_oid = 0;
  ERMIA_RETURN_NOT_OK(ReadRow(txn, t.warehouse_pk, WarehouseKey(w), &wr, &w_oid));
  wr.w_ytd += amount;
  ERMIA_RETURN_NOT_OK(txn.Update(t.warehouse, w_oid, RowSlice(wr)));

  DistrictRow dr;
  Oid d_oid = 0;
  ERMIA_RETURN_NOT_OK(ReadRow(txn, t.district_pk, DistrictKey(w, d), &dr, &d_oid));
  dr.d_ytd += amount;
  ERMIA_RETURN_NOT_OK(txn.Update(t.district, d_oid, RowSlice(dr)));

  CustomerRow cr;
  Oid c_oid = 0;
  uint32_t c_id = 0;
  ERMIA_RETURN_NOT_OK(SelectCustomer(ctx, txn, c_w, c_d, &cr, &c_oid, &c_id));
  cr.c_balance -= amount;
  cr.c_ytd_payment += amount;
  cr.c_payment_cnt++;
  if (std::strncmp(cr.c_credit, "BC", 2) == 0) {
    // Bad credit (TPC-C 2.5.3.3): prepend the payment details to c_data.
    char entry[64];
    std::snprintf(entry, sizeof entry, "%u %u %u %u %u %.2f|", c_id, c_d, c_w,
                  d, w, amount);
    // Shift the old history right and truncate at the column width, as the
    // spec prescribes for the c_data field.
    char merged[sizeof cr.c_data];
    const size_t elen = std::strlen(entry);
    std::memcpy(merged, entry, elen);
    std::memcpy(merged + elen, cr.c_data, sizeof merged - elen);
    merged[sizeof merged - 1] = '\0';
    std::memcpy(cr.c_data, merged, sizeof cr.c_data);
  }
  ERMIA_RETURN_NOT_OK(txn.Update(t.customer, c_oid, RowSlice(cr)));

  HistoryRow hr{};
  hr.h_amount = amount;
  hr.h_c_id = static_cast<int32_t>(c_id);
  hr.h_c_d_id = static_cast<int32_t>(c_d);
  hr.h_c_w_id = static_cast<int32_t>(c_w);
  hr.h_d_id = static_cast<int32_t>(d);
  hr.h_w_id = static_cast<int32_t>(w);
  std::memcpy(hr.h_data, wr.w_name, std::min(sizeof hr.h_data, sizeof wr.w_name));
  const uint64_t seq =
      ctx.history_seq->fetch_add(1, std::memory_order_relaxed);
  ERMIA_RETURN_NOT_OK(txn.Insert(t.history, t.history_pk,
                                 HistoryKey(ctx.worker + 1, seq).slice(),
                                 RowSlice(hr), nullptr));
  return txn.Commit();
}

// --- OrderStatus (TPC-C 2.6): read-only. ------------------------------------
Status TxnOrderStatus(TpccCtx& ctx) {
  const TpccTables& t = *ctx.t;
  const uint32_t w = PickHomeWarehouse(ctx);
  const uint32_t d =
      static_cast<uint32_t>(ctx.rng->UniformU64(1, ctx.cfg->districts()));

  Transaction txn(ctx.db, ctx.scheme, /*read_only=*/true);

  CustomerRow cr;
  Oid c_oid = 0;
  uint32_t c_id = 0;
  ERMIA_RETURN_NOT_OK(SelectCustomer(ctx, txn, w, d, &cr, &c_oid, &c_id));
  if (c_id == 0) c_id = 1;  // selected by name; any of the ids works here

  // Most recent order of this customer: reverse scan on (w,d,c,o_id).
  Varstr lo = OrderCustKey(w, d, c_id, 0);
  Varstr hi = OrderCustKey(w, d, c_id, UINT32_MAX);
  uint32_t o_id = 0;
  ERMIA_RETURN_NOT_OK(txn.ScanOids(
      t.order_cust, lo.slice(), hi.slice(), 1,
      [&](const Slice& key, Oid) {
        KeyDecoder dec(key);
        dec.U32();
        dec.U32();
        dec.U32();
        o_id = dec.U32();
        return false;
      },
      /*reverse=*/true));
  if (o_id == 0) {
    // Customer has no orders (possible at low density); still a commit.
    return txn.Commit();
  }
  double total = 0;
  ERMIA_RETURN_NOT_OK(txn.Scan(
      t.orderline_pk, OrderLineKey(w, d, o_id, 0).slice(),
      OrderLineKey(w, d, o_id, UINT32_MAX).slice(), -1,
      [&](const Slice&, const Slice& value) {
        OrderLineRow lr;
        if (LoadRow(value, &lr)) total += lr.ol_amount;
        return true;
      }));
  (void)total;
  return txn.Commit();
}

// --- Delivery (TPC-C 2.7): batch of 10 district deliveries. -----------------
Status TxnDelivery(TpccCtx& ctx) {
  const TpccTables& t = *ctx.t;
  const uint32_t w = PickHomeWarehouse(ctx);
  const uint32_t carrier = static_cast<uint32_t>(ctx.rng->UniformU64(1, 10));

  Transaction txn(ctx.db, ctx.scheme);
  for (uint32_t d = 1; d <= ctx.cfg->districts(); ++d) {
    // Oldest undelivered order.
    uint32_t o_id = 0;
    Oid no_oid = 0;
    ERMIA_RETURN_NOT_OK(txn.ScanOids(
        t.neworder_pk, NewOrderKey(w, d, 0).slice(),
        NewOrderKey(w, d, UINT32_MAX).slice(), 1,
        [&](const Slice& key, Oid oid) {
          KeyDecoder dec(key);
          dec.U32();
          dec.U32();
          o_id = dec.U32();
          no_oid = oid;
          return false;
        }));
    if (o_id == 0) continue;  // district fully delivered (2.7.4.2)
    ERMIA_RETURN_NOT_OK(txn.Delete(t.neworder_pk, NewOrderKey(w, d, o_id).slice(), no_oid));

    OrderRow orow;
    Oid o_oid = 0;
    ERMIA_RETURN_NOT_OK(
        ReadRow(txn, t.order_pk, OrderKey(w, d, o_id), &orow, &o_oid));
    orow.o_carrier_id = static_cast<int32_t>(carrier);
    ERMIA_RETURN_NOT_OK(txn.Update(t.order, o_oid, RowSlice(orow)));

    double total = 0;
    std::vector<std::pair<Oid, OrderLineRow>> lines;
    ERMIA_RETURN_NOT_OK(txn.ScanOids(
        t.orderline_pk, OrderLineKey(w, d, o_id, 0).slice(),
        OrderLineKey(w, d, o_id, UINT32_MAX).slice(), -1,
        [&](const Slice&, Oid oid) {
          lines.push_back({oid, OrderLineRow{}});
          return true;
        }));
    for (auto& [oid, lr] : lines) {
      Slice raw;
      ERMIA_RETURN_NOT_OK(txn.Read(t.orderline, oid, &raw));
      if (!LoadRow(raw, &lr)) return Status::Corruption("orderline row");
      lr.ol_delivery_d = o_id;
      total += lr.ol_amount;
      ERMIA_RETURN_NOT_OK(txn.Update(t.orderline, oid, RowSlice(lr)));
    }

    CustomerRow cr;
    Oid c_oid = 0;
    ERMIA_RETURN_NOT_OK(ReadRow(
        txn, t.customer_pk,
        CustomerKey(w, d, static_cast<uint32_t>(orow.o_c_id)), &cr, &c_oid));
    cr.c_balance += total;
    cr.c_delivery_cnt++;
    ERMIA_RETURN_NOT_OK(txn.Update(t.customer, c_oid, RowSlice(cr)));
  }
  return txn.Commit();
}

// --- StockLevel (TPC-C 2.8): read-only over recent orders. ------------------
Status TxnStockLevel(TpccCtx& ctx) {
  const TpccTables& t = *ctx.t;
  const uint32_t w = PickHomeWarehouse(ctx);
  const uint32_t d =
      static_cast<uint32_t>(ctx.rng->UniformU64(1, ctx.cfg->districts()));
  const int32_t threshold = static_cast<int32_t>(ctx.rng->UniformU64(10, 20));

  Transaction txn(ctx.db, ctx.scheme, /*read_only=*/true);
  DistrictRow dr;
  ERMIA_RETURN_NOT_OK(ReadRow(txn, t.district_pk, DistrictKey(w, d), &dr));
  const uint32_t next = static_cast<uint32_t>(dr.d_next_o_id);
  const uint32_t from = next > 20 ? next - 20 : 1;

  std::vector<uint32_t> items;
  ERMIA_RETURN_NOT_OK(txn.Scan(
      t.orderline_pk, OrderLineKey(w, d, from, 0).slice(),
      OrderLineKey(w, d, next, UINT32_MAX).slice(), -1,
      [&](const Slice&, const Slice& value) {
        OrderLineRow lr;
        if (LoadRow(value, &lr)) items.push_back(static_cast<uint32_t>(lr.ol_i_id));
        return true;
      }));
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());

  int low = 0;
  for (uint32_t i_id : items) {
    StockRow sr;
    Status s = ReadRow(txn, t.stock_pk, StockKey(w, i_id), &sr);
    if (s.IsNotFound()) continue;
    ERMIA_RETURN_NOT_OK(s);
    if (sr.s_quantity < threshold) ++low;
  }
  (void)low;
  return txn.Commit();
}

}  // namespace tpcc
}  // namespace ermia
