// The four workloads and the helpers they share.
//
//   exchange  Fig. 6a cyclic all-to-all exchange of 8-byte records (data plane)
//   epochs    §4.1 WordCount fed by an open-loop epoch generator (progress plane)
//   pagerank  PageRankCsr on a power-law graph (compute + columnar frames)
//   recover   selective kill-and-recover word count on a forked cluster (src/ft)
//
// Every workload prints the same end-to-end metric names (see BENCHMARK.json), each
// defined per workload in perfbench/LEDGER.md, and on traced runs the same per-layer
// names.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <algorithm>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/ser/codec.h"

namespace perfbench {

// The metric names of BENCHMARK.json: every untraced run reports exactly kEndToEnd,
// every traced run exactly kPerLayer.
inline const std::vector<std::string> kEndToEnd = {"setup_s", "peak_rss_mb", "rate_per_s",
                                                   "p50_ms", "tail_ms"};
inline const std::vector<std::string> kPerLayer = {
    "core.operator_busy_frac",   "core.ingest_ms_per_epoch",    "core.graph_build_s",
    "net.mesh_up_s",             "core.items_per_krecord",      "core.dispatch_mean_us",
    "core.flushes_per_epoch",    "core.flush_updates_mean",     "core.frontier_memo_hit_ratio",
    "net.data_bytes_per_record", "net.data_bytes_per_frame",    "net.wire_gbps",
    "net.writev_batch_mean",     "net.send_queue_depth_p99",    "net.progress_bytes_per_epoch",
    "net.progress_frames_per_epoch", "ser.encode_ns_per_record", "ser.decode_ns_per_record",
    "ser.bytes_per_record",      "algo.reference_s",            "gen.s",
    "ft.replayed_frames_dropped", "ft.fallbacks",               "ft.image_bytes",
    "obs.trace_overhead_frac"};

Outcome RunExchange(const Args& args, Tracer& tracer);
Outcome RunEpochs(const Args& args, Tracer& tracer);
Outcome RunPageRank(const Args& args, Tracer& tracer);
Outcome RunRecover(const Args& args, Tracer& tracer);

// The end-to-end metrics every workload reports on an untraced run.
//   setup_s      median set-up time over the run's jobs
//   peak_rss_mb  peak resident set (the forked members' peak on `recover`)
//   rate_per_s   the workload's unit of work per second
//   p50_ms       median time of the workload's unit of completion
//   tail_ms      the tail of that time: the highest percentile with ten samples beyond
//                it, capped at the 95th (see Summarize); the slowest stall on `recover`
inline void AddEndToEnd(Outcome& out, const std::vector<double>& setup_s, double peak_rss_mb,
                        double rate_per_s, double p50_ms, double tail_ms) {
  out.Add("setup_s", Median(setup_s), "s");
  out.Add("peak_rss_mb", peak_rss_mb, "MB");
  out.Add("rate_per_s", rate_per_s, "1/s");
  out.Add("p50_ms", p50_ms, "ms");
  out.Add("tail_ms", tail_ms, "ms");
  out.Note("setup_samples", static_cast<double>(setup_s.size()), "count");
}

// Times the public codec on `items` (a batch from the workload's own generator, in the
// record type it exchanges): each item is encoded into one buffer as a bundle would be,
// then decoded back and compared. `entries` is how many records the batch holds (more
// than items.size() for columnar batches). Adds ser.* per-layer metrics.
template <typename T>
void AddCodecLayers(Outcome& out, const std::vector<T>& items, double entries,
                    Tracer& tracer) {
  constexpr double kMinSeconds = 0.2;
  naiad::ByteWriter w;
  uint64_t reps = 0;
  const uint64_t enc_t0 = NowNs();
  {
    ScopedSpan span(tracer, "ser.encode");
    do {
      w.buffer().clear();
      for (const T& item : items) {
        naiad::Codec<T>::Encode(w, item);
      }
      ++reps;
    } while (reps < 3 || SecondsSince(enc_t0) < kMinSeconds);
  }
  const double enc_s = SecondsSince(enc_t0);
  const double bytes = static_cast<double>(w.size());
  std::vector<T> back(items.size());
  uint64_t dreps = 0;
  bool ok = true;
  const uint64_t dec_t0 = NowNs();
  {
    ScopedSpan span(tracer, "ser.decode");
    do {
      naiad::ByteReader r(w.buffer());
      for (T& item : back) {
        ok = naiad::Codec<T>::Decode(r, item) && ok;
      }
      ok = r.AtEnd() && ok;
      ++dreps;
    } while (dreps < 3 || SecondsSince(dec_t0) < kMinSeconds);
  }
  const double dec_s = SecondsSince(dec_t0);
  if (!ok || back != items) {
    out.Fail("codec round trip changed the records");
  }
  out.Add("ser.encode_ns_per_record", enc_s * 1e9 / (static_cast<double>(reps) * entries), "ns");
  out.Add("ser.decode_ns_per_record", dec_s * 1e9 / (static_cast<double>(dreps) * entries),
          "ns");
  out.Add("ser.bytes_per_record", bytes / entries, "B");
}

// The ft.* counts, zero on workloads that run no recovery: frames the survivors dropped
// as replays (median per kill), recoveries that fell back from selective to coordinated
// (total over the run), and the committed final images' bytes.
inline void AddFtCounts(Outcome& out, double replayed_dropped, double fallbacks,
                        double image_bytes) {
  out.Add("ft.replayed_frames_dropped", replayed_dropped, "count");
  out.Add("ft.fallbacks", fallbacks, "count");
  out.Add("ft.image_bytes", image_bytes, "B");
}

// obs.trace_overhead_frac: how much worse the traced half's primary metric reads than
// the untraced half's (positive = tracing costs).
inline void AddTraceOverhead(Outcome& out, double untraced, double traced, bool higher_better) {
  const double frac = untraced == 0 ? 0
                      : higher_better ? (untraced - traced) / untraced
                                      : (traced - untraced) / untraced;
  out.Add("obs.trace_overhead_frac", frac, "ratio");
  out.Note("obs.primary_untraced", untraced, "");
  out.Note("obs.primary_traced", traced, "");
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
