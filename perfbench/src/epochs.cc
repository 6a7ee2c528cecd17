// `epochs`: the §4.1 WordCount on 2 processes x 2 workers, fed by an open-loop
// generator. Each process sends its share of every epoch at the epoch's due time, on a
// fixed schedule that never waits for the system; an epoch's latency runs from when it
// was due to its Subscribe callback on process 0. Epochs are small, so the progress
// plane (frontier propagation, notification, worker wake-up) does nearly all the work.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/algo/wordcount.h"
#include "src/core/io.h"

namespace perfbench {
namespace {

constexpr uint32_t kProcesses = 2;
constexpr uint32_t kWorkers = 2;
// The open loop: kEpochRate epochs per second, each of kLinesPerProcess lines of
// kWordsPerLine Zipf(1.07) words from each process. See LEDGER.md for why.
constexpr double kEpochRate = 500;
constexpr uint32_t kLinesPerProcess = 4;
constexpr uint32_t kWordsPerLine = 8;
constexpr uint32_t kVocabulary = 1000;
constexpr double kZipfExponent = 1.07;
constexpr double kLatencyLimitMs = 100;
// Jobs per run: each starts a fresh JobServer, so set-up is sampled this many times. A
// short warm-up job runs first; it is checked but not timed.
constexpr int kJobsPerRun = 8;
constexpr uint64_t kWarmUpEpochs = 100;

using Counts = std::vector<naiad::WordCountRecord>;  // sorted by word

class Zipf {
 public:
  Zipf(uint32_t n, double s) : cdf_(n) {
    double sum = 0;
    for (uint32_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) {
      c /= sum;
    }
  }
  uint32_t Sample(SplitMix& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.Unit());
    return static_cast<uint32_t>(std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

// One job's inputs: lines[process][epoch], and each epoch's reference counts.
struct JobInput {
  std::vector<std::vector<std::vector<std::string>>> lines;
  std::vector<Counts> reference;
  uint64_t words = 0;
};

JobInput Generate(SplitMix& rng, const Zipf& zipf, uint64_t epochs) {
  JobInput in;
  in.lines.assign(kProcesses, std::vector<std::vector<std::string>>(epochs));
  for (uint64_t e = 0; e < epochs; ++e) {
    for (uint32_t p = 0; p < kProcesses; ++p) {
      for (uint32_t l = 0; l < kLinesPerProcess; ++l) {
        std::string line;
        for (uint32_t w = 0; w < kWordsPerLine; ++w) {
          line += (w == 0 ? "w" : " w") + std::to_string(zipf.Sample(rng));
          ++in.words;
        }
        in.lines[p][e].push_back(std::move(line));
      }
    }
  }
  return in;
}

// The oracle: a single-threaded word count of every epoch.
void CountReference(JobInput& in) {
  const size_t epochs = in.lines[0].size();
  in.reference.resize(epochs);
  for (size_t e = 0; e < epochs; ++e) {
    std::map<std::string, uint64_t> counts;
    for (uint32_t p = 0; p < kProcesses; ++p) {
      for (const std::string& line : in.lines[p][e]) {
        for (std::string& word : naiad::SplitWords(line)) {
          ++counts[std::move(word)];
        }
      }
    }
    in.reference[e].assign(counts.begin(), counts.end());
  }
}

// The shared state of one job: the schedule, the per-epoch completion times written by
// the Subscribe callback, and a two-party start barrier for the process drivers.
struct EpochsJob {
  uint64_t epochs = 0;
  uint64_t interval_ns = 0;
  const std::vector<Counts>* reference = nullptr;
  Tracer* tracer = nullptr;
  bool time_busy = false;

  std::mutex mu;
  std::condition_variable cv;
  uint32_t arrived = 0;
  uint64_t start_ns = 0;  // due time of epoch 0

  std::vector<uint64_t> done_ns;  // written only by the Subscribe callback's thread
  std::vector<uint8_t> ok;
  std::atomic<uint64_t> busy_ns{0};
  std::vector<std::vector<double>> lag_ms;     // per process
  std::vector<std::vector<double>> ingest_ms;  // per process

  uint64_t Due(uint64_t e) const { return start_ns + e * interval_ns; }
};

void OnEpochCounts(EpochsJob& job, int64_t job_span, uint64_t epoch, Counts& got) {
  const uint64_t now = NowNs();
  if (epoch >= job.epochs) {
    return;
  }
  job.done_ns[epoch] = now;
  std::sort(got.begin(), got.end());
  job.ok[epoch] = got == (*job.reference)[epoch] ? 1 : 0;
  if (job.time_busy) {
    job.busy_ns.fetch_add(NowNs() - now);
    job.tracer->Record("core.subscribe_callback", now, NowNs(), job_span, epoch);
  }
}

struct Phase {
  JobSamples jobs;
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  std::vector<double> ingest_ms;
  std::vector<double> busy_frac;
  std::vector<double> backlog_first_half;
  std::vector<double> backlog_second_half;
  uint64_t words = 0;
  double delivered_s = 0;
  uint64_t epochs = 0;
  double last_job_s = 0;
};

void RunOneJob(JobInput& in, bool traced, Tracer& tracer, Phase& ph, Outcome& out) {
  EpochsJob job;
  job.epochs = in.reference.size();
  job.interval_ns = static_cast<uint64_t>(1e9 / kEpochRate);
  job.reference = &in.reference;
  job.tracer = &tracer;
  job.time_busy = traced;
  job.done_ns.assign(job.epochs, 0);
  job.ok.assign(job.epochs, 0);
  job.lag_ms.resize(kProcesses);
  job.ingest_ms.resize(kProcesses);
  JobRun run = RunJob(InProcessOptions(kProcesses, kWorkers, traced), tracer,
      [&](naiad::Controller& ctl, JobClock& clock) {
        const uint64_t b0 = NowNs();
        naiad::GraphBuilder b(ctl);
        auto [lines, handle] = naiad::NewInput<std::string>(b);
        naiad::Stream<naiad::WordCountRecord> counts = naiad::WordCount(lines);
        naiad::Subscribe<naiad::WordCountRecord>(
            counts, [&job, &clock](uint64_t epoch, Counts& got) {
              OnEpochCounts(job, clock.span, epoch, got);
            });
        ctl.Start();
        const uint32_t pid = ctl.config().process_id;
        if (pid == 0) {
          clock.graph_build_ns.store(NowNs() - b0);
          tracer.Record("core.graph_build", b0, NowNs(), clock.span);
        }
        {
          // Both drivers are ready: the schedule starts 1 ms from now, for both.
          std::unique_lock<std::mutex> lock(job.mu);
          if (++job.arrived == kProcesses) {
            clock.MarkReady();
            job.start_ns = NowNs() + 1000000;
            job.cv.notify_all();
          } else {
            job.cv.wait(lock, [&] { return job.arrived == kProcesses; });
          }
        }
        std::vector<double>& lag = job.lag_ms[pid];
        std::vector<double>& ingest = job.ingest_ms[pid];
        lag.reserve(job.epochs);
        ingest.reserve(job.epochs);
        for (uint64_t e = 0; e < job.epochs; ++e) {
          const uint64_t due = job.Due(e);
          std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
              std::chrono::nanoseconds(due)));
          const uint64_t t0 = NowNs();
          handle->OnNext(std::move(in.lines[pid][e]));
          const uint64_t t1 = NowNs();
          lag.push_back(static_cast<double>(t0 - due) / 1e6);
          ingest.push_back(static_cast<double>(t1 - t0) / 1e6);
          if (pid == 0) {
            tracer.Record("core.ingest", t0, t1, clock.span, e);
          }
        }
        handle->OnCompleted();
        ctl.Join();
      });
  uint64_t last_done = job.start_ns;
  double backlog[2] = {0, 0};
  for (uint64_t e = 0; e < job.epochs; ++e) {
    ++out.attempted;
    if (job.done_ns[e] == 0 || job.ok[e] == 0) {
      out.Fail("epoch " + std::to_string(e) + ": word counts differ from the reference");
      continue;
    }
    const double ms = static_cast<double>(job.done_ns[e] - job.Due(e)) / 1e6;
    if (ms > kLatencyLimitMs) {
      ++out.failed;  // late, though correct
    }
    ph.latency_ms.push_back(ms);
    last_done = std::max(last_done, job.done_ns[e]);
    // Backlog at e's due time: earlier epochs not yet complete.
    uint64_t pending = 0;
    for (uint64_t d = e; d > 0 && job.done_ns[d - 1] > job.Due(e); --d) {
      ++pending;
    }
    backlog[e * 2 / job.epochs] += static_cast<double>(pending);
  }
  const double half = static_cast<double>(job.epochs) / 2;
  ph.backlog_first_half.push_back(backlog[0] / half);
  ph.backlog_second_half.push_back(backlog[1] / half);
  for (uint32_t p = 0; p < kProcesses; ++p) {
    ph.lag_ms.insert(ph.lag_ms.end(), job.lag_ms[p].begin(), job.lag_ms[p].end());
  }
  ph.ingest_ms.insert(ph.ingest_ms.end(), job.ingest_ms[0].begin(), job.ingest_ms[0].end());
  const double job_s = static_cast<double>(last_done - job.start_ns) / 1e9;
  ph.busy_frac.push_back(static_cast<double>(job.busy_ns.load()) / 1e9 /
                         (job_s * kProcesses * kWorkers));
  ph.words += in.words;
  ph.delivered_s += job_s;
  ph.epochs += job.epochs;
  ph.jobs.Add(std::move(run));
  ph.last_job_s = job_s;
}

Phase RunPhase(std::vector<JobInput>& inputs, bool traced, Tracer& tracer, Outcome& out) {
  Phase ph;
  for (JobInput& in : inputs) {
    RunOneJob(in, traced, tracer, ph, out);
  }
  return ph;
}

}  // namespace

Outcome RunEpochs(const Args& args, Tracer& tracer) {
  Outcome out;
  const int jobs = args.trace ? 2 * kJobsPerRun : kJobsPerRun;
  const uint64_t epochs_per_job = std::max<uint64_t>(
      20, static_cast<uint64_t>(args.seconds * kEpochRate / jobs));
  const uint64_t g0 = NowNs();
  std::vector<JobInput> inputs;
  {
    ScopedSpan span(tracer, "gen.epochs");
    SplitMix rng(args.seed);
    const Zipf zipf(kVocabulary, kZipfExponent);
    inputs.push_back(Generate(rng, zipf, kWarmUpEpochs));
    for (int j = 0; j < jobs; ++j) {
      inputs.push_back(Generate(rng, zipf, epochs_per_job));
    }
  }
  const double gen_s = SecondsSince(g0);
  const uint64_t r0 = NowNs();
  {
    ScopedSpan span(tracer, "algo.reference");
    for (JobInput& in : inputs) {
      CountReference(in);
    }
  }
  const double reference_s = SecondsSince(r0);
  out.Note("epoch_rate", kEpochRate, "1/s");
  out.Note("words_per_epoch", kProcesses * kLinesPerProcess * kWordsPerLine, "count");
  out.Note("latency_limit_ms", kLatencyLimitMs, "ms");
  Phase warm_up;
  RunOneJob(inputs[0], false, tracer, warm_up, out);
  inputs.erase(inputs.begin());

  if (!args.trace) {
    Phase ph = RunPhase(inputs, false, tracer, out);
    if (ph.latency_ms.empty()) {
      return out;
    }
    const Summary lat = Summarize(ph.latency_ms);
    const Summary lag = Summarize(ph.lag_ms);
    AddEndToEnd(out, ph.jobs.setup_s, Median(ph.jobs.peak_rss_mb),
                static_cast<double>(ph.words) / ph.delivered_s, lat.p50, lat.tail);
    out.Note("epoch_p50_ms", lat.p50, "ms");
    out.Note("epoch_tail_ms", lat.tail, "ms");
    out.Note("epoch_tail_pct", lat.tail_pct, "pct");
    out.Note("epoch_p99_ms", Percentile99(ph.latency_ms), "ms");
    out.Note("epoch_samples", static_cast<double>(lat.n), "count");
    out.Note("gen.lag_p50_ms", lag.p50, "ms");
    out.Note("gen.lag_p99_ms", lag.tail, "ms");
    out.Note("backlog_first_half_mean", Median(ph.backlog_first_half), "epochs");
    out.Note("backlog_second_half_mean", Median(ph.backlog_second_half), "epochs");
    return out;
  }
  // Traced run: the first half of the jobs untraced, the second half traced.
  std::vector<JobInput> second(std::make_move_iterator(inputs.begin() + kJobsPerRun),
                               std::make_move_iterator(inputs.end()));
  inputs.resize(kJobsPerRun);
  // The codec batch: the (word, count) records GroupBy exchanges, from the reference.
  std::vector<naiad::WordCountRecord> batch;
  for (const Counts& c : second[0].reference) {
    batch.insert(batch.end(), c.begin(), c.end());
    if (batch.size() >= 4096) {
      break;
    }
  }
  Tracer untraced(false);  // the untraced half records no spans either
  Phase plain = RunPhase(inputs, false, untraced, out);
  Phase traced = RunPhase(second, true, tracer, out);
  if (plain.latency_ms.empty() || traced.latency_ms.empty()) {
    return out;
  }
  const double words = static_cast<double>(traced.words);
  out.Add("core.operator_busy_frac", Median(traced.busy_frac), "ratio");
  out.Add("core.ingest_ms_per_epoch", Median(traced.ingest_ms), "ms");
  out.Add("core.graph_build_s", Median(traced.jobs.graph_build_s), "s");
  out.Add("net.mesh_up_s", Median(traced.jobs.mesh_up_s), "s");
  const double last_epochs = static_cast<double>(traced.epochs) / kJobsPerRun;
  AddObsLayers(out, traced.jobs.last.stats, words / kJobsPerRun, last_epochs, traced.last_job_s);
  AddCodecLayers(out, batch, static_cast<double>(batch.size()), tracer);
  out.Add("algo.reference_s", reference_s, "s");
  out.Add("gen.s", gen_s, "s");
  AddFtCounts(out, 0, 0, 0);
  AddTraceOverhead(out, Median(plain.latency_ms), Median(traced.latency_ms), false);
  out.Note("gen.lag_p99_ms", Summarize(traced.lag_ms).tail, "ms");
  return out;
}

}  // namespace perfbench
