// Shared pieces of the benchmark: clocks, sample summaries, the in-memory span recorder,
// the job harness around JobServer, and the metric report printed at the end of a run.
//
// The benchmark drives the system only through its public API (JobServer, GraphBuilder,
// InputHandle, Subscribe, the codecs, the kill-recover driver) and times its own calls
// into each layer. Spans are held in memory and written once when the run ends.

#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/net/cluster.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

inline double SecondsSince(uint64_t t0_ns) { return static_cast<double>(NowNs() - t0_ns) / 1e9; }

// splitmix64: the benchmark's own generator, so inputs depend only on --seed.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

// Sample summary: the median, and the highest percentile that still has at least ten
// samples beyond it, 100 * (1 - 10 / n), capped at the 95th: further out, single machine
// hiccups move the figure by more than any bound a change could be held to. Below 20
// samples that percentile would fall under the median, so the maximum is reported
// (tail_pct = 100).
struct Summary {
  size_t n = 0;
  double p50 = 0;
  double tail = 0;
  double tail_pct = 0;
};

double Percentile(const std::vector<double>& sorted, double pct);
double Median(std::vector<double> v);
double Percentile99(std::vector<double> v);
Summary Summarize(std::vector<double> v);

// In-memory span recorder. Each span has a name ("<layer>.<call>"), start, end, parent
// span and request id (the epoch number on `epochs`). Disabled recorders ignore every
// call, so untraced runs pay one branch per span.
class Tracer {
 public:
  static constexpr int64_t kNoParent = -1;

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int64_t Begin(const char* name, int64_t parent = kNoParent);
  void End(int64_t id);
  // A span whose interval was measured elsewhere.
  void Record(const char* name, uint64_t start_ns, uint64_t end_ns,
              int64_t parent = kNoParent, uint64_t request = 0);

  // Per span name: count, total time and self time (duration minus the part of it that
  // child spans cover), printed as text lines.
  void PrintSelfTimes() const;
  // Writes every span as a JSON array; false if the file cannot be written.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    int64_t parent;
    uint64_t request;
  };
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, int64_t parent = Tracer::kNoParent)
      : t_(t), id_(t.Begin(name, parent)) {}
  ~ScopedSpan() { t_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer& t_;
  int64_t id_;
};

// One named metric value with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What a workload hands back to main: the oracle verdict, attempted/failed counts, the
// metrics of this run (end-to-end on untraced runs, per-layer on traced runs), and the
// workload-specific figures printed as text.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& name, double value, const std::string& unit) {
    notes.push_back({name, value, unit});
  }
  // A failed oracle: prints why and counts it.
  void Fail(const std::string& why);
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";  // spans and scratch files (checkpoint directories) go here
};

// Timestamps of one job on a fresh JobServer. `ready_ns` is set by the body right before
// its first input record (the earliest process wins); set-up is JobServer construction
// up to that point, so it spans mesh bring-up, job registration and graph build.
struct JobClock {
  int64_t span = Tracer::kNoParent;  // the job's span: parent of the body's spans
  uint64_t ctor_ns = 0;
  uint64_t started_ns = 0;  // JobServer::Start returned
  std::atomic<uint64_t> graph_build_ns{0};  // process 0's GraphBuilder → ctl.Start()
  std::atomic<uint64_t> ready_ns{0};

  void MarkReady() {
    uint64_t expect = 0;
    ready_ns.compare_exchange_strong(expect, NowNs());
  }
};

struct JobRun {
  uint64_t ready_ns = 0;  // the job's first input (absolute, NowNs clock)
  double setup_s = 0;
  double mesh_up_s = 0;
  double graph_build_s = 0;
  double peak_rss_mb = 0;  // the process's peak resident set during this job
  naiad::ClusterStats stats;
};

// The per-job figures of a run's jobs, and the last job's statistics.
struct JobSamples {
  std::vector<double> setup_s;
  std::vector<double> peak_rss_mb;
  std::vector<double> mesh_up_s;
  std::vector<double> graph_build_s;
  JobRun last;

  void Add(JobRun run) {
    setup_s.push_back(run.setup_s);
    peak_rss_mb.push_back(run.peak_rss_mb);
    mesh_up_s.push_back(run.mesh_up_s);
    graph_build_s.push_back(run.graph_build_s);
    last = std::move(run);
  }
};

// Runs `body` as one job on a fresh JobServer: construct, Start, Submit, Wait, Stop.
JobRun RunJob(const naiad::ClusterOptions& opts, Tracer& tracer,
              const std::function<void(naiad::Controller&, JobClock&)>& body);

// Options shared by the in-process workloads: `traced` turns on the obs registry and
// the system's own trace rings, so per-layer counts come from ClusterStats.obs.
naiad::ClusterOptions InProcessOptions(uint32_t processes, uint32_t workers, bool traced);

// Peak resident set: ResetPeakRss() trims the heap and restarts the process's high-water
// mark (Linux clear_refs), PeakRssMb() reads it; ChildrenPeakRssMb() is the largest
// waited-for child's.
void ResetPeakRss();
double PeakRssMb();
double ChildrenPeakRssMb();

// Per-layer figures read from one job's ClusterStats (obs registry on).
void AddObsLayers(Outcome& out, const naiad::ClusterStats& stats, double records,
                  double epochs, double job_seconds);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
