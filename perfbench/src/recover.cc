// `recover`: the selective kill-and-recover word count on a forked cluster of 3
// processes x 1 worker. Members log their outbound data durably and commit cluster
// checkpoints after epochs 7 and 15; one member is SIGKILLed mid-feed at epoch 14 and
// the cluster finds the death in-band (supervisor hint off). Selective recovery keeps
// the survivors' state and re-executes epochs 8-14 on the replacement alone.
//
// The kill-recover driver does not expose where set-up ends, so set-up (and, on traced
// runs, the core/net layer counts) come from the same application run in-process on a
// 3 x 1 JobServer.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/base/hash.h"
#include "src/base/rng.h"
#include "src/core/io.h"
#include "src/ft/cluster_recovery.h"
#include "src/ft/recovery.h"

namespace perfbench {
namespace {

constexpr uint32_t kProcesses = 3;
constexpr uint32_t kWorkers = 1;
constexpr uint64_t kEpochs = 16;
constexpr uint64_t kCheckpointEvery = 8;  // commits after epochs 7 and 15
constexpr uint64_t kKillEpoch = 14;
constexpr uint64_t kWordsPerEpoch = 65536;  // per process
constexpr uint64_t kVocabulary = 9973;
// Per-record operator cost: re-execution is then dominated by vertex compute, which
// selective recovery repeats on the replacement only.
constexpr int kWorkRoundsPerRecord = 128;
constexpr int kSetupProbes = 15;

// words[epoch][process], generated before any member is forked.
using Corpus = std::vector<std::vector<std::vector<uint64_t>>>;

Corpus Generate(uint64_t seed) {
  Corpus c(kEpochs, std::vector<std::vector<uint64_t>>(kProcesses));
  for (uint64_t e = 0; e < kEpochs; ++e) {
    for (uint32_t p = 0; p < kProcesses; ++p) {
      SplitMix rng(naiad::HashCombine(naiad::HashCombine(seed, e), p));
      c[e][p].resize(kWordsPerEpoch);
      for (uint64_t& w : c[e][p]) {
        w = rng.Next() % kVocabulary;
      }
    }
  }
  return c;
}

class CountVertex final : public naiad::SinkVertex<uint64_t> {
 public:
  explicit CountVertex(std::atomic<uint64_t>* busy_ns) : busy_ns_(busy_ns) {}

  void OnRecv(const naiad::Timestamp&, std::vector<uint64_t>& batch) override {
    const uint64_t t0 = busy_ns_ != nullptr ? NowNs() : 0;
    for (uint64_t w : batch) {
      uint64_t x = w;
      for (int r = 0; r < kWorkRoundsPerRecord; ++r) {
        x = naiad::HashCombine(x, static_cast<uint64_t>(r));
      }
      scratch_ ^= x;
      ++counts_[w];
    }
    if (busy_ns_ != nullptr) {
      busy_ns_->fetch_add(NowNs() - t0);
    }
  }
  void Checkpoint(naiad::ByteWriter& w) const override {
    w.WriteU32(static_cast<uint32_t>(counts_.size()));
    for (const auto& [word, count] : counts_) {
      w.WriteU64(word);
      w.WriteU64(count);
    }
  }
  bool Restore(naiad::ByteReader& r) override {
    counts_.clear();
    const uint32_t n = r.ReadU32();
    for (uint32_t i = 0; i < n && r.ok(); ++i) {
      const uint64_t word = r.ReadU64();
      counts_[word] = r.ReadU64();
    }
    return r.ok();
  }

 private:
  std::atomic<uint64_t>* busy_ns_;
  std::map<uint64_t, uint64_t> counts_;
  uint64_t scratch_ = 0;  // keeps the per-record work observable; not checkpointed
};

// Builds the word count on `ctl`: input → exchange by word → CountVertex.
struct WordCountGraph {
  std::shared_ptr<naiad::InputHandle<uint64_t>> handle;
  naiad::StageId input_stage = 0;
  naiad::Probe probe;

  WordCountGraph(naiad::Controller& ctl, std::atomic<uint64_t>* busy_ns) {
    naiad::GraphBuilder b(ctl);
    auto [in, h] = naiad::NewInput<uint64_t>(b);
    handle = h;
    input_stage = in.stage;
    naiad::StageOptions so;
    so.name = "count";
    naiad::StageId sid = b.NewStage<CountVertex>(
        so, [busy_ns](uint32_t) { return std::make_unique<CountVertex>(busy_ns); });
    b.Connect<CountVertex, uint64_t>(in, sid, 0, [](const uint64_t& w) { return w; });
    probe = naiad::Probe(&ctl, sid);
  }
};

class WordCountApp final : public naiad::ClusterApp {
 public:
  WordCountApp(naiad::Controller& ctl, const Corpus& corpus)
      : ctl_(&ctl), corpus_(&corpus), graph_(ctl, nullptr) {}

  void FeedEpoch(uint64_t epoch) override {
    graph_.handle->OnNext((*corpus_)[epoch][ctl_->config().process_id]);
  }
  bool EpochPassed(uint64_t epoch) override { return graph_.probe.Passed(epoch); }
  void RestoreInputs(const std::vector<naiad::InputEpochs>& inputs) override {
    for (const naiad::InputEpochs& in : inputs) {
      if (in.stage == graph_.input_stage) {
        graph_.handle->RestoreEpoch(in.next_epoch, in.closed);
      }
    }
  }
  void CloseInputs() override { graph_.handle->OnCompleted(); }

 private:
  naiad::Controller* ctl_;
  const Corpus* corpus_;
  WordCountGraph graph_;
};

// Mirrors the driver's kill-schedule derivation so that every kill lands mid-feed at
// kKillEpoch, after the epoch-7 commit; the outcome's kill_epoch confirms it.
bool SeedKillsAtEpoch(uint64_t seed) {
  naiad::Rng kr(naiad::HashCombine(seed, naiad::HashString("CLUSTER-KILL")));
  const bool in_barrier = (kr.Next() & 1) != 0;
  return !in_barrier && 1 + seed % (kEpochs - 1) == kKillEpoch;
}

std::string FreshDir(const std::string& root, const std::string& tag) {
  const std::string dir = root + "/recover-" + std::to_string(::getpid()) + "-" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

naiad::ClusterKillRecoverDriver::Options DriverOptions(const std::string& dir, uint64_t seed,
                                                       bool kill, bool traced) {
  naiad::ClusterKillRecoverDriver::Options o;
  o.cfg.processes = kProcesses;
  o.cfg.workers_per_process = kWorkers;
  o.cfg.total_epochs = kEpochs;
  o.cfg.checkpoint_every = kCheckpointEvery;
  o.cfg.ckpt_dir = dir;
  o.cfg.obs.metrics = traced;
  o.cfg.obs.tracing = traced;
  o.cfg.recovery_mode = naiad::RecoveryMode::kSelective;
  o.cfg.supervisor_hint = false;
  o.cfg.heartbeat_interval_ms = 25;
  o.cfg.heartbeat_timeout_ms = 2000;
  o.seed = seed;
  o.inject_kill = kill;
  return o;
}

struct Images {
  std::vector<std::vector<uint8_t>> blobs;
  bool ok = true;
  double bytes = 0;
  double read_s = 0;
};

// The committed final-epoch images, one per process, CRC-verified on read.
Images ReadFinalImages(const std::string& dir, Tracer& tracer, int64_t parent) {
  Images im;
  ScopedSpan span(tracer, "ft.image_read", parent);
  const uint64_t t0 = NowNs();
  for (uint32_t p = 0; p < kProcesses; ++p) {
    naiad::CheckpointReadResult r =
        naiad::ReadCheckpointFileEx(naiad::ClusterImagePath(dir, p, kEpochs - 1));
    im.ok = im.ok && r.ok();
    im.bytes += static_cast<double>(r.image.size());
    im.blobs.push_back(std::move(r.image));
  }
  im.read_s = SecondsSince(t0);
  return im;
}

struct Kill {
  double stall_s = 0;
  double downtime_s = 0;
  double detection_s = 0;
  double elapsed_s = 0;
  double replayed_dropped = 0;
  double fallbacks = 0;
  double image_bytes = 0;
  double image_read_s = 0;
};

std::vector<Kill> RunKills(const Corpus& corpus, const std::vector<std::vector<uint8_t>>& clean,
               const std::vector<uint64_t>& seeds, size_t& next_seed, double seconds,
               bool traced, const std::string& root, Tracer& tracer, Outcome& out) {
  std::vector<Kill> kills;
  const uint64_t t0 = NowNs();
  do {
    const uint64_t seed = seeds[next_seed++ % seeds.size()];
    const std::string dir = FreshDir(root, "kill" + std::to_string(out.attempted));
    ScopedSpan span(tracer, "ft.kill_recover_run");
    const naiad::ClusterKillOutcome o = naiad::ClusterKillRecoverDriver::Run(
        DriverOptions(dir, seed, true, traced),
        [&corpus](naiad::Controller& ctl) { return std::make_unique<WordCountApp>(ctl, corpus); });
    ++out.attempted;
    const Images im = ReadFinalImages(dir, tracer, span.id());
    std::filesystem::remove_all(dir);
    if (!o.launched || !o.ok || !o.killed || o.stats.recoveries < 1) {
      out.Fail("kill-recover run with driver seed " + std::to_string(seed) +
               " did not recover");
      continue;
    }
    if (!im.ok || im.blobs != clean) {
      out.Fail("driver seed " + std::to_string(seed) +
               ": final images differ from the clean run");
      continue;
    }
    if (o.kill_epoch != kKillEpoch || o.kill_in_barrier) {
      out.Note("unexpected_kill_epoch", static_cast<double>(o.kill_epoch), "epoch");
    }
    Kill k;
    k.stall_s = o.stats.survivor_stall_seconds;
    k.downtime_s = o.stats.recovery_downtime_seconds;
    k.detection_s = o.detection_seconds;
    k.elapsed_s = o.stats.elapsed_seconds;
    k.replayed_dropped = static_cast<double>(o.stats.replayed_frames_dropped);
    // selective_recoveries counts the members that recovered selectively; none means
    // the recovery fell back to a coordinated restart.
    k.fallbacks = o.stats.selective_recoveries == 0 ? static_cast<double>(o.stats.recoveries) : 0;
    k.image_bytes = im.bytes;
    k.image_read_s = im.read_s;
    kills.push_back(k);
  } while (SecondsSince(t0) < seconds);
  return kills;
}

std::vector<double> Column(const std::vector<Kill>& kills, double Kill::*field) {
  std::vector<double> v;
  for (const Kill& k : kills) {
    v.push_back(k.*field);
  }
  return v;
}

// The same application in-process on a 3 x 1 JobServer. With feed = false the job closes
// its input at once, which samples set-up alone.
struct InProcessRun {
  JobRun run;
  double job_s = 0;
  double busy_frac = 0;
  double ingest_ms = 0;
};

InProcessRun RunInProcess(const Corpus& corpus, bool feed, bool traced, Tracer& tracer) {
  InProcessRun pr;
  std::atomic<uint64_t> busy_ns{0};
  std::atomic<uint64_t> ingest_ns{0};
  std::atomic<uint64_t> done_ns{0};
  pr.run = RunJob(InProcessOptions(kProcesses, kWorkers, traced), tracer,
                  [&](naiad::Controller& ctl, JobClock& clock) {
                    const uint64_t b0 = NowNs();
                    WordCountGraph g(ctl, traced ? &busy_ns : nullptr);
                    ctl.Start();
                    const uint32_t pid = ctl.config().process_id;
                    if (pid == 0) {
                      clock.graph_build_ns.store(NowNs() - b0);
                      tracer.Record("core.graph_build", b0, NowNs(), clock.span);
                    }
                    clock.MarkReady();
                    for (uint64_t e = 0; feed && e < kEpochs; ++e) {
                      const uint64_t i0 = NowNs();
                      g.handle->OnNext(corpus[e][pid]);
                      if (pid == 0) {
                        ingest_ns.fetch_add(NowNs() - i0);
                        tracer.Record("core.ingest", i0, NowNs(), clock.span, e);
                      }
                    }
                    g.handle->OnCompleted();
                    if (feed) {
                      g.probe.WaitPassed(kEpochs - 1);
                      done_ns.store(NowNs());
                    }
                    ctl.Join();
                  });
  if (feed) {
    pr.job_s = static_cast<double>(done_ns.load() - pr.run.ready_ns) / 1e9;
    pr.busy_frac = static_cast<double>(busy_ns.load()) / 1e9 / (pr.job_s * kProcesses);
    pr.ingest_ms = static_cast<double>(ingest_ns.load()) / 1e6 / kEpochs;
  }
  return pr;
}

}  // namespace

Outcome RunRecover(const Args& args, Tracer& tracer) {
  Outcome out;
  const uint64_t g0 = NowNs();
  Corpus corpus;
  std::vector<uint64_t> seeds;
  {
    ScopedSpan span(tracer, "gen.corpus");
    corpus = Generate(args.seed);
    for (uint64_t s = naiad::Mix64(args.seed) % 100000; seeds.size() < 64; ++s) {
      if (SeedKillsAtEpoch(s)) {
        seeds.push_back(s);
      }
    }
  }
  const double gen_s = SecondsSince(g0);

  std::vector<double> setup_s;
  for (int i = 0; i < kSetupProbes; ++i) {
    setup_s.push_back(RunInProcess(corpus, false, false, tracer).run.setup_s);
  }

  // The reference: a clean forked run (no kill) of the same corpus.
  const uint64_t r0 = NowNs();
  Images clean;
  {
    ScopedSpan span(tracer, "algo.reference");
    const std::string dir = FreshDir(args.out_dir, "clean");
    const naiad::ClusterKillOutcome o = naiad::ClusterKillRecoverDriver::Run(
        DriverOptions(dir, 0, false, false),
        [&corpus](naiad::Controller& ctl) { return std::make_unique<WordCountApp>(ctl, corpus); });
    clean = ReadFinalImages(dir, tracer, span.id());
    std::filesystem::remove_all(dir);
    if (!o.launched || !o.ok || o.killed || !clean.ok) {
      out.Fail("the clean reference run failed");
      return out;
    }
  }
  const double reference_s = SecondsSince(r0);
  out.Note("words_per_epoch", static_cast<double>(kWordsPerEpoch * kProcesses), "count");
  out.Note("epochs", static_cast<double>(kEpochs), "count");

  size_t next_seed = 0;
  if (!args.trace) {
    const std::vector<Kill> kills = RunKills(corpus, clean.blobs, seeds, next_seed,
                                             args.seconds, false, args.out_dir, tracer, out);
    if (kills.empty()) {
      return out;
    }
    const double words = static_cast<double>(kWordsPerEpoch * kProcesses * kEpochs);
    std::vector<double> rate;
    for (const Kill& k : kills) {
      rate.push_back(words / k.elapsed_s);
    }
    const std::vector<double> stalls = Column(kills, &Kill::stall_s);
    const double stall = Median(stalls);
    const double downtime = Median(Column(kills, &Kill::downtime_s));
    // A run holds too few kills for a percentile: the tail is the slowest stall.
    const double slowest = *std::max_element(stalls.begin(), stalls.end());
    AddEndToEnd(out, setup_s, ChildrenPeakRssMb(), Median(rate), stall * 1e3, slowest * 1e3);
    out.Note("survivor_stall_s", stall, "s");
    out.Note("recovery_downtime_s", downtime, "s");
    out.Note("kills", static_cast<double>(kills.size()), "count");
    return out;
  }
  Tracer untraced(false);  // the untraced half records no spans either
  const std::vector<Kill> plain = RunKills(corpus, clean.blobs, seeds, next_seed,
                                           args.seconds / 2, false, args.out_dir, untraced, out);
  const std::vector<Kill> traced = RunKills(corpus, clean.blobs, seeds, next_seed,
                                            args.seconds / 2, true, args.out_dir, tracer, out);
  if (plain.empty() || traced.empty()) {
    return out;
  }
  const InProcessRun pr = RunInProcess(corpus, true, true, tracer);
  const double words = static_cast<double>(kWordsPerEpoch * kProcesses * kEpochs);
  out.Add("core.operator_busy_frac", pr.busy_frac, "ratio");
  out.Add("core.ingest_ms_per_epoch", pr.ingest_ms, "ms");
  out.Add("core.graph_build_s", pr.run.graph_build_s, "s");
  out.Add("net.mesh_up_s", pr.run.mesh_up_s, "s");
  AddObsLayers(out, pr.run.stats, words, kEpochs, pr.job_s);
  std::vector<uint64_t> batch(corpus[0][0].begin(), corpus[0][0].begin() + 4096);
  AddCodecLayers(out, batch, static_cast<double>(batch.size()), tracer);
  out.Add("algo.reference_s", reference_s, "s");
  out.Add("gen.s", gen_s, "s");
  double fallbacks = 0;
  for (const std::vector<Kill>* kills : {&plain, &traced}) {
    for (const Kill& k : *kills) {
      fallbacks += k.fallbacks;
    }
  }
  AddFtCounts(out, Median(Column(traced, &Kill::replayed_dropped)), fallbacks,
              Median(Column(traced, &Kill::image_bytes)));
  AddTraceOverhead(out, Median(Column(plain, &Kill::stall_s)),
                   Median(Column(traced, &Kill::stall_s)), false);
  out.Note("ft.detection_s", Median(Column(traced, &Kill::detection_s)), "s");
  out.Note("ft.image_read_s", Median(Column(traced, &Kill::image_read_s)), "s");
  out.Note("core.in_process_job_s", pr.job_s, "s");
  return out;
}

}  // namespace perfbench
