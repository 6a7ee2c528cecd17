// `pagerank`: PageRankCsr on 2 processes x 2 workers over a seeded power-law graph, for
// a fixed number of iterations, one job per fresh JobServer. Each process feeds its
// PowerLawEdgeStream shard in one epoch; the ranks are collected by Subscribe on process
// 0 and checked against a single-threaded PageRank over the same edges. Compute, bulk
// ColumnBatch frames and one notification barrier per iteration.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/algo/pagerank.h"
#include "src/core/io.h"
#include "src/gen/graphs.h"
#include "src/ser/columns.h"

namespace perfbench {
namespace {

constexpr uint32_t kProcesses = 2;
constexpr uint32_t kWorkers = 2;
constexpr uint64_t kEdges = uint64_t{1} << 20;
constexpr uint64_t kNodes = kEdges / 4;
constexpr double kExponent = 1.05;
constexpr uint64_t kIterations = 10;
constexpr double kRelTolerance = 1e-9;

using Ranks = std::vector<naiad::NodeRank>;  // sorted by node

// Single-threaded PageRank with PageRankCsr's semantics: every endpoint starts at 1.0,
// and each of the iterations after the first sets rank = base + damping * (sum of
// in-neighbours' rank / out-degree). Duplicate edges and self-loops count.
Ranks ReferencePageRank(const std::vector<std::vector<naiad::Edge>>& shards) {
  std::vector<uint64_t> ids;
  for (const auto& shard : shards) {
    for (const naiad::Edge& e : shard) {
      ids.push_back(e.first);
      ids.push_back(e.second);
    }
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  auto index = [&ids](uint64_t node) {
    return static_cast<size_t>(std::lower_bound(ids.begin(), ids.end(), node) - ids.begin());
  };
  std::vector<std::pair<size_t, size_t>> edges;
  std::vector<double> out_degree(ids.size(), 0);
  for (const auto& shard : shards) {
    for (const naiad::Edge& e : shard) {
      edges.push_back({index(e.first), index(e.second)});
      out_degree[edges.back().first] += 1;
    }
  }
  std::vector<double> rank(ids.size(), 1.0);
  std::vector<double> acc(ids.size(), 0.0);
  for (uint64_t it = 1; it < kIterations; ++it) {
    std::fill(acc.begin(), acc.end(), 0.0);
    for (const auto& [src, dst] : edges) {
      acc[dst] += rank[src] / out_degree[src];
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      rank[i] = naiad::kPrBase + naiad::kPrDamping * acc[i];
    }
  }
  Ranks out(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    out[i] = {ids[i], rank[i]};
  }
  return out;
}

bool RanksMatch(Ranks& got, const Ranks& want) {
  std::sort(got.begin(), got.end());
  if (got.size() != want.size()) {
    return false;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].first != want[i].first ||
        std::abs(got[i].second - want[i].second) >
            kRelTolerance * std::max(1.0, std::abs(want[i].second))) {
      return false;
    }
  }
  return true;
}

struct Phase {
  JobSamples jobs;
  std::vector<double> job_ms;
  std::vector<double> rate;
  std::vector<double> ingest_ms;
  std::vector<double> busy_frac;
};

Phase RunPhase(const std::vector<std::vector<naiad::Edge>>& graph, const Ranks& reference,
               double seconds, bool traced, Tracer& tracer, Outcome& out) {
  Phase ph;
  bool warm_up = true;
  const uint64_t t0 = NowNs();
  do {
    std::vector<std::vector<naiad::Edge>> shards = graph;  // copied outside every timing
    std::atomic<uint64_t> done_ns{0};
    std::atomic<uint64_t> ingest_ns{0};
    std::atomic<uint64_t> busy_ns{0};
    bool ok = false;
    JobRun run = RunJob(InProcessOptions(kProcesses, kWorkers, traced), tracer,
        [&](naiad::Controller& ctl, JobClock& clock) {
          const uint64_t b0 = NowNs();
          naiad::GraphBuilder b(ctl);
          auto [edges, handle] = naiad::NewInput<naiad::Edge>(b);
          naiad::Stream<naiad::NodeRank> ranks = naiad::PageRankCsr(edges, kIterations);
          naiad::Subscribe<naiad::NodeRank>(ranks, [&](uint64_t, Ranks& got) {
            const uint64_t now = NowNs();
            done_ns.store(now);
            ok = RanksMatch(got, reference);
            if (traced) {
              busy_ns.fetch_add(NowNs() - now);
              tracer.Record("core.subscribe_callback", now, NowNs(), clock.span);
            }
          });
          ctl.Start();
          const uint32_t pid = ctl.config().process_id;
          if (pid == 0) {
            clock.graph_build_ns.store(NowNs() - b0);
            tracer.Record("core.graph_build", b0, NowNs(), clock.span);
          }
          clock.MarkReady();
          const uint64_t i0 = NowNs();
          handle->OnNext(std::move(shards[pid]));
          if (pid == 0) {
            ingest_ns.store(NowNs() - i0);
            tracer.Record("core.ingest", i0, NowNs(), clock.span);
          }
          handle->OnCompleted();
          ctl.Join();
        });
    ++out.attempted;
    if (!ok || done_ns.load() == 0) {
      out.Fail("pagerank job " + std::to_string(out.attempted) +
               ": ranks differ from the single-threaded reference");
      continue;
    }
    if (warm_up) {
      warm_up = false;  // the first job warms caches and allocators; it is checked, not timed
      continue;
    }
    const double job_s = static_cast<double>(done_ns.load() - run.ready_ns) / 1e9;
    ph.job_ms.push_back(job_s * 1e3);
    ph.rate.push_back(static_cast<double>(kEdges * kIterations) / job_s);
    ph.ingest_ms.push_back(static_cast<double>(ingest_ns.load()) / 1e6);
    ph.busy_frac.push_back(static_cast<double>(busy_ns.load()) / 1e9 /
                           (job_s * kProcesses * kWorkers));
    ph.jobs.Add(std::move(run));
  } while (SecondsSince(t0) < seconds);
  return ph;
}

}  // namespace

Outcome RunPageRank(const Args& args, Tracer& tracer) {
  Outcome out;
  const uint64_t g0 = NowNs();
  std::vector<std::vector<naiad::Edge>> graph(kProcesses);
  {
    ScopedSpan span(tracer, "gen.graph");
    for (uint32_t p = 0; p < kProcesses; ++p) {
      naiad::PowerLawEdgeStream stream(naiad::PowerLawEdgeStream::Options{
          .nodes = kNodes,
          .edges = kEdges,
          .exponent = kExponent,
          .seed = args.seed,
          .part = p,
          .parts = kProcesses});
      while (stream.NextChunk(graph[p], 1 << 16) > 0) {
      }
    }
  }
  const double gen_s = SecondsSince(g0);
  const uint64_t r0 = NowNs();
  Ranks reference;
  {
    ScopedSpan span(tracer, "algo.reference");
    reference = ReferencePageRank(graph);
  }
  const double reference_s = SecondsSince(r0);
  out.Note("edges", static_cast<double>(kEdges), "count");
  out.Note("iterations", static_cast<double>(kIterations), "count");
  out.Note("nodes_ranked", static_cast<double>(reference.size()), "count");

  if (!args.trace) {
    Phase ph = RunPhase(graph, reference, args.seconds, false, tracer, out);
    if (ph.job_ms.empty()) {
      return out;
    }
    const Summary jobs = Summarize(ph.job_ms);
    AddEndToEnd(out, ph.jobs.setup_s, Median(ph.jobs.peak_rss_mb), Median(ph.rate), jobs.p50,
                jobs.tail);
    out.Note("job_tail_pct", jobs.tail_pct, "pct");
    out.Note("edges_per_s", Median(ph.rate), "1/s");
    out.Note("algo.reference_edges_per_s",
             static_cast<double>(kEdges * (kIterations - 1)) / reference_s, "1/s");
    out.Note("jobs", static_cast<double>(jobs.n), "count");
    return out;
  }
  Tracer untraced(false);  // the untraced half records no spans either
  Phase plain = RunPhase(graph, reference, args.seconds / 2, false, untraced, out);
  Phase traced = RunPhase(graph, reference, args.seconds / 2, true, tracer, out);
  if (plain.rate.empty() || traced.rate.empty()) {
    return out;
  }
  out.Add("core.operator_busy_frac", Median(traced.busy_frac), "ratio");
  out.Add("core.ingest_ms_per_epoch", Median(traced.ingest_ms), "ms");
  out.Add("core.graph_build_s", Median(traced.jobs.graph_build_s), "s");
  out.Add("net.mesh_up_s", Median(traced.jobs.mesh_up_s), "s");
  AddObsLayers(out, traced.jobs.last.stats, static_cast<double>(kEdges * kIterations), 1,
               traced.job_ms.back() / 1e3);
  // The columnar frames the iterations exchange: (node, rank share) ColumnBatches of
  // the default batch size, filled from the reference ranks.
  std::vector<naiad::RankColumns> batches(4);
  size_t entries = 0;
  for (size_t i = 0; i < batches.size(); ++i) {
    batches[i].part = i;
    for (size_t j = i * 4096; j < (i + 1) * 4096 && j < reference.size(); ++j) {
      batches[i].Push(reference[j].first, reference[j].second);
      ++entries;
    }
  }
  AddCodecLayers(out, batches, static_cast<double>(entries), tracer);
  out.Add("algo.reference_s", reference_s, "s");
  out.Add("gen.s", gen_s, "s");
  AddFtCounts(out, 0, 0, 0);
  AddTraceOverhead(out, Median(plain.rate), Median(traced.rate), true);
  return out;
}

}  // namespace perfbench
