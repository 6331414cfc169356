// Outside-in layer probes and the correctness gates. Both run after the
// timed run, once the workers have stopped, so they add nothing to the
// end-to-end figures. Each probe times calls into one module's public
// functions from inside an open Transaction, which keeps the epoch pinned
// against the garbage collector while the probe walks engine memory.
#ifndef ERMIA_PERFBENCH_PROBES_H_
#define ERMIA_PERFBENCH_PROBES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "engine/database.h"
#include "workloads/tpcc/tpcc_workload.h"
#include "ycsb_b.h"

namespace perfbench {

// A record named by its primary key.
struct RowRef {
  ermia::Index* index;
  ermia::Varstr key;
};

struct ProbeResult {
  double lookup_ns = 0;          // BTree::Lookup, largest primary index
  double scan_keys_per_row = 0;  // NewOrder: tree entries / visible rows
  double hot_chain_len = 0;      // versions reachable from the chain head
  double hot_read_ns = 0;        // Transaction::Read of a hot row
  double begin_commit_ro_ns = 0;      // empty read-only txn
  double begin_commit_update_ns = 0;  // txn rewriting one cold row
};

// Runs every probe that applies. `hot` are the rows the workload updates
// most; `cold` is a row it never writes, rewritten with its own bytes by the
// update probe. `tpcc` is null for workloads without TPC-C tables.
ermia::Status RunProbes(ermia::Database* db, ermia::CcScheme scheme,
                        uint64_t seed, const std::vector<RowRef>& hot,
                        const RowRef& cold,
                        const ermia::tpcc::TpccWorkload* tpcc,
                        ProbeResult* out);

// TPC-C consistency conditions 1 and 2 (spec 3.3.2.1-2): per warehouse,
// w_ytd equals the sum of its districts' d_ytd; per district, d_next_o_id - 1
// equals the largest order id and the largest new-order id.
ermia::Status CheckTpcc(ermia::Database* db, ermia::CcScheme scheme,
                        const ermia::tpcc::TpccWorkload& tpcc);

// YCSB: every loaded key is present, readable, in order, and of full size.
ermia::Status CheckYcsb(ermia::Database* db, ermia::CcScheme scheme,
                        const YcsbB& ycsb);

}  // namespace perfbench

#endif  // ERMIA_PERFBENCH_PROBES_H_
