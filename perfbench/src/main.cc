// The benchmark's entry point: one workload per invocation.
//
//   perfbench --workload <exchange|epochs|pagerank|recover> --seed <n> --seconds <s>
//             --trace <0|1> [--out <dir>]
//
// --trace 0 measures the end-to-end metrics with the obs registry and tracing off.
// --trace 1 measures the per-layer metrics: half the run untraced, half with the obs
// registry, the system's trace rings and the benchmark's own spans on; the spans go to
// <out>/spans-<workload>-<seed>.json once the run ends.
//
// Human-readable lines start with '#'. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The exit code is 0 only when
// every output oracle passed.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <exchange|epochs|pagerank|recover> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\n");
}

void PrintJson(const perfbench::Outcome& o) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              o.correct ? "true" : "false", static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed));
  for (size_t i = 0; i < o.metrics.size(); ++i) {
    const perfbench::Metric& m = o.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--out") {
      args.out_dir = val;
    } else {
      Usage();
      return 2;
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0) {
    Usage();
    return 2;
  }
  perfbench::Tracer tracer(args.trace);
  perfbench::Outcome out;
  if (args.workload == "exchange") {
    out = perfbench::RunExchange(args, tracer);
  } else if (args.workload == "epochs") {
    out = perfbench::RunEpochs(args, tracer);
  } else if (args.workload == "pagerank") {
    out = perfbench::RunPageRank(args, tracer);
  } else if (args.workload == "recover") {
    out = perfbench::RunRecover(args, tracer);
  } else {
    Usage();
    return 2;
  }
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("# attempted=%llu failed=%llu failed_frac=%.6f\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              out.attempted == 0 ? 0.0
                                 : static_cast<double>(out.failed) /
                                       static_cast<double>(out.attempted));
  for (const perfbench::Metric& m : out.notes) {
    std::printf("# %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const perfbench::Metric& m : out.metrics) {
    std::printf("# %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (tracer.enabled()) {
    tracer.PrintSelfTimes();
    const std::string path =
        args.out_dir + "/spans-" + args.workload + "-" + std::to_string(args.seed) + ".json";
    if (!tracer.Write(path)) {
      std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
      return 1;
    }
  }
  // A result must carry exactly the metric names BENCHMARK.json declares.
  if (out.correct && out.attempted > 0) {
    std::vector<std::string> names;
    for (const perfbench::Metric& m : out.metrics) {
      names.push_back(m.name);
    }
    std::vector<std::string> want = args.trace ? perfbench::kPerLayer : perfbench::kEndToEnd;
    std::sort(names.begin(), names.end());
    std::sort(want.begin(), want.end());
    if (names != want) {
      std::fprintf(stderr, "metric names differ from the declared set\n");
      return 1;
    }
  }
  PrintJson(out);
  std::fflush(stdout);
  return out.correct && out.attempted > 0 ? 0 : 1;
}
