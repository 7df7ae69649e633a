// Calibration of pins.json: reruns a workload with its exact pins
// unenforced and prints every figure pins.json holds for it. With a
// reference budget it also runs the long search whose best length becomes
// the workload's "reference" (the lower of it and every final seen):
//   clk_drill, dist_drill  4-node DistCLK on threads, complete topology
//   serve_mix              the same under the simulator's modeled cost,
//                          per hot instance (deterministic)
//   prep_mega              one LK pass over the construction tour (BigTour)
#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "core/runtime.h"
#include "experiments/harness.h"
#include "lk/lin_kernighan.h"
#include "tsp/big_tour.h"
#include "workloads.h"

namespace e2e {

using namespace distclk;

namespace {

constexpr std::uint64_t kReferenceSeed = 424243;

std::int64_t searchReference(const Instance& inst, RuntimeKind runtime,
                             double seconds) {
  auto ctx = InstanceContext::build(std::make_shared<const Instance>(inst));
  RunConfig cfg;
  cfg.runtime = runtime;
  cfg.costModel = CostModel::kModeled;  // ignored by the thread runtime
  cfg.nodes = 4;
  cfg.topology = TopologyKind::kComplete;
  cfg.node = scaledNodeParams(inst);
  cfg.timeLimitPerNode = seconds;
  cfg.seed = kReferenceSeed;
  return runDistributed(ctx, cfg).bestLength;
}

}  // namespace

int calibrate(const Workload& w, Options opt, double referenceSeconds) {
  opt.calibrate = true;
  const Outcome o = w.run(opt, nullptr);
  obs::JsonObject seen;
  std::vector<std::string> keys;  // a figure checked repeatedly prints once
  for (const auto& [key, value] : o.observed) {
    if (std::find(keys.begin(), keys.end(), key) != keys.end()) continue;
    keys.push_back(key);
    seen.field(key, value);
  }
  for (const Metric& m : o.e2e)
    std::printf("e2e %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const Metric& m : o.named)
    std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());

  if (referenceSeconds > 0) {
    const std::string name = w.name;
    if (name == "clk_drill" || name == "dist_drill") {
      const Instance inst = makeInstance(member(opt.pins, "instance"));
      seen.field("reference_search",
                 searchReference(inst, RuntimeKind::kThreads, referenceSeconds));
    } else if (name == "serve_mix") {
      const auto& hot = member(opt.pins, "hot").array;
      for (std::size_t k = 0; k < hot.size(); ++k) {
        const Instance inst = makeInstance(member(hot[k], "instance"));
        seen.field("hot." + std::to_string(k) + ".reference_search",
                   searchReference(inst, RuntimeKind::kSim, referenceSeconds));
      }
    } else {
      auto inst = std::make_shared<const Instance>(
          makeInstance(member(opt.pins, "instance")));
      PreprocessParams params;
      params.prepThreads = int(std::max(1u, std::thread::hardware_concurrency()));
      const auto ctx = InstanceContext::build(inst, params);
      BigTour tour(*inst, ctx->constructionOrder());
      linKernighanOptimize(tour, ctx->candidates());
      seen.field("reference_search", tour.length());
    }
  }
  std::printf("calibrated %s %s\n", w.name, seen.str().c_str());
  return o.failed == 0 ? 0 : 1;
}

}  // namespace e2e
