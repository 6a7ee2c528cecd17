// `exchange`: the Fig. 6a cyclic dataflow. 8-byte records re-partition all-to-all every
// round inside one loop, in one input epoch per job; each job runs on a fresh JobServer
// (2 processes x 2 workers) and the next job starts only when the previous one has
// finished (a closed loop of batch jobs). The data plane does nearly all the work.

#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/base/hash.h"
#include "src/core/io.h"
#include "src/core/loop.h"
#include "src/core/stage.h"

namespace perfbench {
namespace {

constexpr uint32_t kProcesses = 2;
constexpr uint32_t kWorkers = 2;
constexpr uint64_t kRecords = uint64_t{1} << 19;  // per job, all processes together
constexpr uint64_t kRounds = 40;                   // exchanges (and +1 steps) per record

// Shared by every vertex of one job: the oracle's accumulators, the per-round arrival
// counts (round r is complete once all kRecords have arrived at it), and busy time.
struct ExchangeJob {
  bool time_busy = false;
  std::atomic<uint64_t> arrived[kRounds] = {};
  std::atomic<uint64_t> round_done_ns[kRounds] = {};
  std::atomic<uint64_t> absorbed{0};
  std::atomic<uint64_t> sum{0};
  std::atomic<uint64_t> hash_sum{0};
  std::atomic<uint64_t> busy_ns{0};
};

// All-to-all: the destination is a hash of the value, and the value changes every round.
uint64_t Route(const uint64_t& x) { return (x * 0x9e3779b97f4a7c15ULL) >> 32; }

// Adds one to every record and sends it round again; in the last round it folds the
// records into the job's oracle sums instead.
class RotateVertex final : public naiad::UnaryVertex<uint64_t, uint64_t> {
 public:
  explicit RotateVertex(ExchangeJob* job) : job_(job) {}

  void OnRecv(const naiad::Timestamp& t, std::vector<uint64_t>& batch) override {
    const uint64_t t0 = job_->time_busy ? NowNs() : 0;
    const uint64_t round = t.coords.back();
    if (job_->arrived[round].fetch_add(batch.size()) + batch.size() == kRecords) {
      job_->round_done_ns[round].store(NowNs());
    }
    for (uint64_t& x : batch) {
      x += 1;
    }
    if (round + 1 < kRounds) {
      this->output().SendBatch(t, std::move(batch));
    } else {
      uint64_t sum = 0;
      uint64_t hash_sum = 0;
      for (uint64_t x : batch) {
        sum += x;
        hash_sum += naiad::Mix64(x - kRounds);
      }
      job_->sum.fetch_add(sum);
      job_->hash_sum.fetch_add(hash_sum);
      job_->absorbed.fetch_add(batch.size());
    }
    if (t0 != 0) {
      job_->busy_ns.fetch_add(NowNs() - t0);
    }
  }

 private:
  ExchangeJob* job_;
};

struct Reference {
  uint64_t sum = 0;
  uint64_t hash_sum = 0;
};

struct Phase {
  JobSamples jobs;
  std::vector<double> round_ms;  // from one round's completion to the next's
  std::vector<double> job_ms;
  std::vector<double> rate;
  std::vector<double> busy_frac;
  std::vector<double> ingest_ms;
};

Phase RunPhase(const std::vector<uint64_t>& records, const Reference& ref, double seconds,
               bool traced, Tracer& tracer, Outcome& out) {
  Phase ph;
  bool warm_up = true;
  const uint64_t t0 = NowNs();
  do {
    // Input shards are copied before the job so the copy stays out of every timing.
    std::vector<std::vector<uint64_t>> shards(kProcesses);
    for (uint64_t i = 0; i < records.size(); ++i) {
      shards[i % kProcesses].push_back(records[i]);
    }
    ExchangeJob job;
    job.time_busy = traced;
    std::atomic<uint64_t> ingest_ns{0};
    JobRun run = RunJob(InProcessOptions(kProcesses, kWorkers, traced), tracer,
        [&](naiad::Controller& ctl, JobClock& clock) {
          const uint64_t b0 = NowNs();
          naiad::GraphBuilder b(ctl);
          auto [in, handle] = naiad::NewInput<uint64_t>(b);
          naiad::LoopContext loop(b, 0, "exchange");
          naiad::FeedbackHandle<uint64_t> fb = loop.NewFeedback<uint64_t>();
          naiad::Stream<uint64_t> entered = loop.Ingress<uint64_t>(in, Route);
          naiad::StageOptions so;
          so.name = "rotate";
          so.depth = 1;
          naiad::StageId rotate = b.NewStage<RotateVertex>(
              so, [&job](uint32_t) { return std::make_unique<RotateVertex>(&job); });
          b.Connect<RotateVertex, uint64_t>(entered, rotate, 0, Route);
          b.Connect<RotateVertex, uint64_t>(fb.stream(), rotate, 0, Route);
          fb.ConnectLoop(b.OutputOf<uint64_t>(rotate), Route);
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
    if (job.absorbed.load() != kRecords || job.sum.load() != ref.sum + kRecords * kRounds ||
        job.hash_sum.load() != ref.hash_sum) {
      out.Fail("exchange job " + std::to_string(out.attempted) +
               ": records not conserved or values wrong");
      continue;
    }
    if (warm_up) {
      warm_up = false;  // the first job warms caches and allocators; it is checked, not timed
      continue;
    }
    // Round 0 also carries the input's injection, so round times start at round 1.
    for (uint64_t r = 1; r < kRounds; ++r) {
      ph.round_ms.push_back(
          static_cast<double>(job.round_done_ns[r].load() - job.round_done_ns[r - 1].load()) /
          1e6);
    }
    const double job_s =
        static_cast<double>(job.round_done_ns[kRounds - 1].load() - run.ready_ns) / 1e9;
    ph.job_ms.push_back(job_s * 1e3);
    ph.rate.push_back(static_cast<double>(kRecords * kRounds) / job_s);
    ph.busy_frac.push_back(static_cast<double>(job.busy_ns.load()) / 1e9 /
                           (job_s * kProcesses * kWorkers));
    ph.ingest_ms.push_back(static_cast<double>(ingest_ns.load()) / 1e6);
    ph.jobs.Add(std::move(run));
  } while (SecondsSince(t0) < seconds);
  return ph;
}

}  // namespace

Outcome RunExchange(const Args& args, Tracer& tracer) {
  Outcome out;
  const uint64_t g0 = NowNs();
  std::vector<uint64_t> records(kRecords);
  {
    ScopedSpan span(tracer, "gen.records");
    SplitMix rng(args.seed);
    for (uint64_t& r : records) {
      r = rng.Next();
    }
  }
  const double gen_s = SecondsSince(g0);
  const uint64_t r0 = NowNs();
  Reference ref;
  {
    ScopedSpan span(tracer, "algo.reference");
    for (uint64_t r : records) {
      ref.sum += r;
      ref.hash_sum += naiad::Mix64(r);
    }
  }
  const double reference_s = SecondsSince(r0);

  if (!args.trace) {
    Phase ph = RunPhase(records, ref, args.seconds, false, tracer, out);
    if (ph.job_ms.empty()) {
      return out;
    }
    const Summary rounds = Summarize(ph.round_ms);
    AddEndToEnd(out, ph.jobs.setup_s, Median(ph.jobs.peak_rss_mb), Median(ph.rate),
                rounds.p50, rounds.tail);
    out.Note("records_per_s", Median(ph.rate), "1/s");
    out.Note("round_tail_pct", rounds.tail_pct, "pct");
    out.Note("round_samples", static_cast<double>(rounds.n), "count");
    out.Note("job_ms_p50", Median(ph.job_ms), "ms");
    return out;
  }
  Tracer untraced(false);  // the untraced half records no spans either
  Phase plain = RunPhase(records, ref, args.seconds / 2, false, untraced, out);
  Phase traced = RunPhase(records, ref, args.seconds / 2, true, tracer, out);
  if (plain.rate.empty() || traced.rate.empty()) {
    return out;
  }
  const double records_moved = static_cast<double>(kRecords * kRounds);
  out.Add("core.operator_busy_frac", Median(traced.busy_frac), "ratio");
  out.Add("core.ingest_ms_per_epoch", Median(traced.ingest_ms), "ms");
  out.Add("core.graph_build_s", Median(traced.jobs.graph_build_s), "s");
  out.Add("net.mesh_up_s", Median(traced.jobs.mesh_up_s), "s");
  AddObsLayers(out, traced.jobs.last.stats, records_moved, 1, traced.job_ms.back() / 1e3);
  std::vector<uint64_t> batch(records.begin(), records.begin() + 4096);
  AddCodecLayers(out, batch, static_cast<double>(batch.size()), tracer);
  out.Add("algo.reference_s", reference_s, "s");
  out.Add("gen.s", gen_s, "s");
  AddFtCounts(out, 0, 0, 0);
  AddTraceOverhead(out, Median(plain.rate), Median(traced.rate), true);
  return out;
}

}  // namespace perfbench
