#include "trace/trace_reader.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <unordered_map>

#include "metrics/json.h"
#include "metrics/metrics.h"

namespace ermia {
namespace trace {

namespace {

struct PlainRecord {
  uint64_t tsc, a, b, meta;
};

const char* SchemeShortName(uint64_t scheme) {
  switch (scheme) {
    case 0:
      return "SI";
    case 1:
      return "SI+SSN";
    case 2:
      return "OCC";
  }
  return "?";
}

}  // namespace

Status ReadTraceDump(const std::string& path, TraceDump* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);

  FileHeader fh{};
  if (!in.read(reinterpret_cast<char*>(&fh), sizeof fh)) {
    return Status::Corruption("trace dump truncated in header");
  }
  if (fh.magic != kDumpMagic) {
    return Status::Corruption("not a trace dump (bad magic)");
  }
  if (fh.version != kDumpVersion) {
    return Status::NotSupported("trace dump version mismatch");
  }
  if (fh.record_size != sizeof(PlainRecord)) {
    return Status::Corruption("trace dump record size mismatch");
  }

  out->cycles_per_ns = fh.cycles_per_ns > 0.0 ? fh.cycles_per_ns : 1.0;
  out->anchor_tsc = fh.anchor_tsc;
  out->anchor_unix_ns = fh.anchor_unix_ns;
  out->total_recorded = 0;
  out->total_dropped = 0;
  out->threads.clear();
  out->events.clear();

  std::vector<PlainRecord> buf;
  for (uint32_t r = 0; r < fh.nrings; ++r) {
    RingHeader rh{};
    if (!in.read(reinterpret_cast<char*>(&rh), sizeof rh)) {
      return Status::Corruption("trace dump truncated in ring header");
    }
    if (rh.count > fh.ring_events) {
      return Status::Corruption("trace dump ring count out of range");
    }
    out->total_recorded += rh.head;
    out->total_dropped += rh.dropped;
    buf.resize(rh.count);
    if (rh.count > 0 &&
        !in.read(reinterpret_cast<char*>(buf.data()),
                 static_cast<std::streamsize>(rh.count * sizeof(PlainRecord)))) {
      return Status::Corruption("trace dump truncated in ring records");
    }
    bool any = false;
    for (const PlainRecord& pr : buf) {
      const uint16_t raw_event = static_cast<uint16_t>((pr.meta >> 16) & 0xffff);
      // Torn or never-written records (a dump racing the writers): drop.
      if (pr.tsc == 0 || raw_event == 0 ||
          raw_event >= static_cast<uint16_t>(Event::kNumEvents)) {
        continue;
      }
      DecodedEvent e;
      e.tsc = pr.tsc;
      e.a = pr.a;
      e.b = pr.b;
      e.txn = static_cast<uint32_t>(pr.meta >> 32);
      e.thread = rh.thread;
      e.event = static_cast<Event>(raw_event);
      out->events.push_back(e);
      any = true;
    }
    if (any) out->threads.push_back(rh.thread);
  }
  std::sort(out->threads.begin(), out->threads.end());
  std::stable_sort(out->events.begin(), out->events.end(),
                   [](const DecodedEvent& x, const DecodedEvent& y) {
                     return x.tsc < y.tsc;
                   });
  return Status::OK();
}

std::string ToChromeTraceJson(const TraceDump& dump) {
  const double cpn = dump.cycles_per_ns;
  // Time origin: the earliest event (the calibration anchor may postdate
  // early events and negative timestamps render poorly).
  uint64_t t0 = dump.anchor_tsc;
  for (const DecodedEvent& e : dump.events) t0 = std::min(t0, e.tsc);
  auto ts_us = [&](uint64_t tsc) {
    return static_cast<double>(tsc - t0) / cpn / 1000.0;
  };

  metrics::JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents").BeginArray();

  w.BeginObject();
  w.Field("name", "process_name").Field("ph", "M");
  w.Field("pid", uint64_t{1}).Field("tid", uint64_t{0});
  w.Key("args").BeginObject().Field("name", "ermia").EndObject();
  w.EndObject();
  for (uint32_t t : dump.threads) {
    w.BeginObject();
    w.Field("name", "thread_name").Field("ph", "M");
    w.Field("pid", uint64_t{1}).Field("tid", static_cast<uint64_t>(t));
    w.Key("args").BeginObject();
    char buf[32];
    std::snprintf(buf, sizeof buf, "ermia-thread-%u", t);
    w.Field("name", buf);
    w.EndObject();
    w.EndObject();
  }

  auto common = [&](const char* name, const char* cat, const char* ph,
                    double ts, uint32_t tid) {
    w.BeginObject();
    w.Field("name", name).Field("cat", cat).Field("ph", ph);
    w.Field("ts", ts);
    w.Field("pid", uint64_t{1}).Field("tid", static_cast<uint64_t>(tid));
  };
  auto instant = [&](const DecodedEvent& e, const char* cat) {
    common(EventName(e.event), cat, "i", ts_us(e.tsc), e.thread);
    w.Field("s", "t");
    w.Key("args").BeginObject();
    if (e.txn != 0) w.Field("txn", static_cast<uint64_t>(e.txn));
    w.Field("a", e.a).Field("b", e.b);
    w.EndObject();
    w.EndObject();
  };

  // Span pairing state. Transactions key by (thread, txn); the other span
  // kinds are one-at-a-time per thread, keyed by (thread, begin event id).
  std::unordered_map<uint64_t, DecodedEvent> open_txn;
  std::unordered_map<uint64_t, DecodedEvent> open_span;
  auto txn_key = [](const DecodedEvent& e) {
    return (static_cast<uint64_t>(e.thread) << 32) | e.txn;
  };
  auto span_key = [](uint32_t thread, Event begin) {
    return (static_cast<uint64_t>(thread) << 32) |
           static_cast<uint64_t>(begin);
  };
  uint64_t flow_id = 0;

  struct SpanKind {
    Event begin, end;
    const char* name;
    const char* cat;
  };
  static constexpr SpanKind kSpanKinds[] = {
      {Event::kCertifyBegin, Event::kCertifyEnd, "certify", "cc"},
      {Event::kLogFlushWaitBegin, Event::kLogFlushWaitEnd, "log_flush_wait",
       "log"},
      {Event::kGcPassBegin, Event::kGcPassEnd, "gc_pass", "gc"},
      {Event::kLogFlushBegin, Event::kLogFlushEnd, "log_flush", "log"},
      {Event::kCkptBegin, Event::kCkptEnd, "checkpoint", "ckpt"},
      {Event::kLogStallBegin, Event::kLogStallEnd, "log_stall", "health"},
  };
  auto kind_for = [&](Event e, bool* is_begin) -> const SpanKind* {
    for (const SpanKind& k : kSpanKinds) {
      if (e == k.begin) {
        *is_begin = true;
        return &k;
      }
      if (e == k.end) {
        *is_begin = false;
        return &k;
      }
    }
    return nullptr;
  };

  for (const DecodedEvent& e : dump.events) {
    switch (e.event) {
      case Event::kTxnBegin:
        open_txn[txn_key(e)] = e;
        continue;
      case Event::kTxnCommit:
      case Event::kTxnAbort: {
        auto it = open_txn.find(txn_key(e));
        if (it == open_txn.end()) {
          // Begin fell off the ring (wrap) — keep the endpoint visible.
          instant(e, "txn");
          continue;
        }
        const DecodedEvent& b = it->second;
        const bool aborted = e.event == Event::kTxnAbort;
        char name[48];
        std::snprintf(name, sizeof name, "txn %s", SchemeShortName(b.a));
        common(name, "txn", "X", ts_us(b.tsc), e.thread);
        w.Field("dur", ts_us(e.tsc) - ts_us(b.tsc));
        w.Key("args").BeginObject();
        w.Field("txn", static_cast<uint64_t>(e.txn));
        w.Field("scheme", SchemeShortName(b.a));
        w.Key("read_only").Bool(b.b != 0);
        w.Field("outcome", aborted ? "abort" : "commit");
        if (aborted) {
          w.Field("abort_reason",
                  metrics::AbortReasonName(
                      static_cast<metrics::AbortReason>(e.a)));
        }
        w.EndObject();
        w.EndObject();
        if (aborted) {
          // Flow annotation from the begin to the abort, named by reason, so
          // Perfetto draws an arrow across the span carrying the cause.
          char fname[64];
          std::snprintf(fname, sizeof fname, "abort:%s",
                        metrics::AbortReasonName(
                            static_cast<metrics::AbortReason>(e.a)));
          ++flow_id;
          common(fname, "abort", "s", ts_us(b.tsc), e.thread);
          w.Field("id", flow_id);
          w.EndObject();
          common(fname, "abort", "f", ts_us(e.tsc), e.thread);
          w.Field("id", flow_id).Field("bp", "e");
          w.EndObject();
        }
        open_txn.erase(it);
        continue;
      }
      default:
        break;
    }
    bool is_begin = false;
    const SpanKind* kind = kind_for(e.event, &is_begin);
    if (kind != nullptr) {
      const uint64_t key = span_key(e.thread, kind->begin);
      if (is_begin) {
        open_span[key] = e;
        continue;
      }
      auto it = open_span.find(key);
      if (it == open_span.end()) {
        instant(e, kind->cat);
        continue;
      }
      common(kind->name, kind->cat, "X", ts_us(it->second.tsc), e.thread);
      w.Field("dur", ts_us(e.tsc) - ts_us(it->second.tsc));
      w.Key("args").BeginObject();
      if (e.txn != 0) w.Field("txn", static_cast<uint64_t>(e.txn));
      w.Field("a", e.a).Field("b", e.b);
      w.EndObject();
      w.EndObject();
      open_span.erase(it);
      continue;
    }
    switch (e.event) {
      case Event::kTxnRead:
      case Event::kTxnUpdate:
      case Event::kTxnInsert:
      case Event::kTxnDelete:
      case Event::kTxnScan:
        instant(e, "op");
        break;
      case Event::kEpochAdvance:
        instant(e, "epoch");
        break;
      case Event::kLogRotation:
        instant(e, "log");
        break;
      case Event::kCkptCollected:
      case Event::kCkptDataSynced:
        instant(e, "ckpt");
        break;
      case Event::kLogPoisoned:
      case Event::kGovernorLimit:
      case Event::kWatchdogTrip:
        instant(e, "health");
        break;
      default:
        instant(e, "other");
        break;
    }
  }
  // In-flight work at dump time: surface the dangling begins as instants.
  for (const auto& [key, e] : open_txn) {
    (void)key;
    instant(e, "txn");
  }
  for (const auto& [key, e] : open_span) {
    (void)key;
    instant(e, "other");
  }

  w.EndArray();
  w.Field("displayTimeUnit", "ms");
  w.Key("otherData").BeginObject();
  w.Field("cycles_per_ns", dump.cycles_per_ns);
  w.Field("anchor_tsc", dump.anchor_tsc);
  w.Field("anchor_unix_ns", dump.anchor_unix_ns);
  w.Field("total_recorded", dump.total_recorded);
  w.Field("total_dropped", dump.total_dropped);
  w.EndObject();
  w.EndObject();
  return w.Take();
}

}  // namespace trace
}  // namespace ermia
