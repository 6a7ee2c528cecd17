#include "perfbench/src/common.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>

#include "src/net/job_server.h"

namespace perfbench {

double Percentile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) {
    return 0;
  }
  const double rank = pct / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Percentile(v, 50);
}

double Percentile99(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Percentile(v, 99);
}

Summary Summarize(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  Summary s;
  s.n = v.size();
  s.p50 = Percentile(v, 50);
  s.tail = v.empty() ? 0 : v.back();
  s.tail_pct = 100;
  if (v.size() >= 20) {
    s.tail_pct = std::min(95.0, 100.0 * (1.0 - 10.0 / static_cast<double>(v.size())));
    s.tail = Percentile(v, s.tail_pct);
  }
  return s;
}

int64_t Tracer::Begin(const char* name, int64_t parent) {
  if (!enabled_) {
    return kNoParent;
  }
  const uint64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, now, 0, parent, 0});
  return static_cast<int64_t>(spans_.size() - 1);
}

void Tracer::End(int64_t id) {
  if (!enabled_ || id < 0) {
    return;
  }
  const uint64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

void Tracer::Record(const char* name, uint64_t start_ns, uint64_t end_ns, int64_t parent,
                    uint64_t request) {
  if (!enabled_) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
}

void Tracer::PrintSelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  struct Row {
    uint64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns) {
      continue;  // never ended
    }
    // Union of the child intervals, clipped to the parent.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t cur_lo = 0;
    uint64_t cur_hi = 0;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) {
        continue;
      }
      if (lo > cur_hi) {
        covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    covered += cur_hi - cur_lo;
    Row& r = rows[s.name];
    r.count += 1;
    const uint64_t dur = s.end_ns - s.start_ns;
    r.total_ms += static_cast<double>(dur) / 1e6;
    r.self_ms += static_cast<double>(dur - std::min(dur, covered)) / 1e6;
  }
  std::printf("# span                         count     total_ms      self_ms\n");
  for (const auto& [name, r] : rows) {
    std::printf("# %-26s %8llu %12.3f %12.3f\n", name.c_str(),
                static_cast<unsigned long long>(r.count), r.total_ms, r.self_ms);
  }
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"parent\":%lld,\"request\":%llu}%s\n",
                 i, s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

void Outcome::Fail(const std::string& why) {
  std::printf("# ORACLE FAILED: %s\n", why.c_str());
  correct = false;
  failed += 1;
}

JobRun RunJob(const naiad::ClusterOptions& opts, Tracer& tracer,
              const std::function<void(naiad::Controller&, JobClock&)>& body) {
  JobClock clock;
  JobRun run;
  ResetPeakRss();
  ScopedSpan job_span(tracer, "bench.job");
  clock.span = job_span.id();
  clock.ctor_ns = NowNs();
  naiad::JobServer server(opts);
  server.Start();
  clock.started_ns = NowNs();
  tracer.Record("net.mesh_up", clock.ctor_ns, clock.started_ns, job_span.id());
  const naiad::JobId id = server.Submit([&](naiad::Controller& ctl) { body(ctl, clock); });
  server.Wait(id);
  {
    ScopedSpan stop_span(tracer, "net.stop", job_span.id());
    run.stats = server.Stop();
  }
  run.peak_rss_mb = PeakRssMb();
  run.ready_ns = clock.ready_ns.load();
  run.setup_s = static_cast<double>(run.ready_ns - clock.ctor_ns) / 1e9;
  run.mesh_up_s = static_cast<double>(clock.started_ns - clock.ctor_ns) / 1e9;
  run.graph_build_s = static_cast<double>(clock.graph_build_ns.load()) / 1e9;
  return run;
}

naiad::ClusterOptions InProcessOptions(uint32_t processes, uint32_t workers, bool traced) {
  naiad::ClusterOptions opts;
  opts.processes = processes;
  opts.workers_per_process = workers;
  opts.obs.metrics = traced;
  opts.obs.tracing = traced;
  return opts;
}

void ResetPeakRss() {
  ::malloc_trim(0);  // hand freed heap back first, so the mark starts from live memory
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // the line reads "<n> kB"
    }
  }
  return 0;
}

double ChildrenPeakRssMb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

namespace {

const naiad::obs::HistogramSnapshot* FindHistogram(const naiad::obs::ObsSnapshot& s,
                                                   const std::string& name) {
  for (const auto& h : s.histograms) {
    if (h.name == name) {
      return &h;
    }
  }
  return nullptr;
}

double HistMean(const naiad::obs::ObsSnapshot& s, const std::string& name) {
  const auto* h = FindHistogram(s, name);
  return h == nullptr ? 0 : h->mean;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace

void AddObsLayers(Outcome& out, const naiad::ClusterStats& stats, double records,
                  double epochs, double job_seconds) {
  const naiad::obs::ObsSnapshot& s = stats.obs;
  const double items = static_cast<double>(s.counter("items_run"));
  const double flushes = static_cast<double>(s.counter("progress_flushes"));
  const double hits = static_cast<double>(s.counter("progress_query_memo_hits"));
  const double scans = static_cast<double>(s.counter("progress_query_scans"));
  out.Add("core.items_per_krecord", Ratio(items, records / 1000.0), "count");
  out.Add("core.dispatch_mean_us", HistMean(s, "dispatch_latency_ns") / 1e3, "us");
  out.Add("core.flushes_per_epoch", Ratio(flushes, epochs), "count");
  out.Add("core.flush_updates_mean", HistMean(s, "flush_updates"), "count");
  out.Add("core.frontier_memo_hit_ratio", Ratio(hits, hits + scans), "ratio");
  out.Note("core.frontier_queries", hits + scans, "count");
  // Log2-bucketed quantiles (bucket representative values): text only.
  for (const char* h : {"dispatch_latency_ns", "notify_lag_ns"}) {
    if (const auto* hs = FindHistogram(s, h)) {
      const std::string base = std::string("core.") + (h[0] == 'd' ? "dispatch" : "notify_lag");
      out.Note(base + "_p50_us", hs->p50 / 1e3, "us");
      out.Note(base + "_p99_us", hs->p99 / 1e3, "us");
      out.Note(base + "_samples", static_cast<double>(hs->count), "count");
    }
  }
  out.Note("core.notify_lag_mean_us", HistMean(s, "notify_lag_ns") / 1e3, "us");
  const double data_bytes = static_cast<double>(stats.data_bytes);
  out.Add("net.data_bytes_per_record", Ratio(data_bytes, records), "B");
  out.Add("net.data_bytes_per_frame", Ratio(data_bytes, static_cast<double>(stats.data_frames)),
          "B");
  out.Add("net.wire_gbps", Ratio(data_bytes * 8 / 1e9, job_seconds), "Gb/s");
  out.Add("net.writev_batch_mean", HistMean(s, "writev_batch"), "count");
  const auto* depth = FindHistogram(s, "send_queue_depth");
  out.Add("net.send_queue_depth_p99", depth == nullptr ? 0 : depth->p99, "count");
  out.Add("net.progress_bytes_per_epoch",
          Ratio(static_cast<double>(stats.progress_bytes), epochs), "B");
  out.Add("net.progress_frames_per_epoch",
          Ratio(static_cast<double>(stats.progress_frames), epochs), "count");
}

}  // namespace perfbench
