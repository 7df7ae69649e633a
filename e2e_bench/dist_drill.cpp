// dist_drill: DistCLK on the thread runtime — 4 nodes on a 2-cube, the
// scaled node parameters (n/16-kick inner CLK bursts, restarts), a fixed
// wall budget per node and no target stop — on the same instance as
// clk_drill, over a pinned seed set. The untraced pass calls
// runDistributed; the traced pass drives the same NodeRunner loop itself
// over timing decorators of the public Clock and Transport interfaces, so
// the compute, merge, collect and broadcast phases of every EA step show.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <memory>
#include <thread>

#include "core/runtime.h"
#include "experiments/harness.h"
#include "net/thread_network.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "workloads.h"

namespace e2e {

using namespace distclk;

namespace {

/// Per-node state the decorators read. Slot i is written and read only by
/// node i's thread.
struct NodeTrace {
  Tracer& tr;
  int op;
  std::vector<int> span;     ///< current tick (or initial-step) span
  std::vector<char> initial; ///< node is in its initial step
};

/// Clock decorator: forwards to the wall clock and records each compute
/// phase — the measured seconds chargeCompute receives — as a span.
class TimedClock final : public Clock {
 public:
  TimedClock(Clock& inner, NodeTrace& nt) : inner_(inner), nt_(nt) {}
  double now(int node) const override { return inner_.now(node); }
  double chargeCompute(int node, std::int64_t modelCost,
                       double measuredSeconds) override {
    const std::int64_t end = nowNs();
    const auto i = std::size_t(node);
    nt_.tr.record(nt_.initial[i] != 0 ? "core.initial_compute" : "core.compute",
                  end - std::llround(measuredSeconds * 1e9), end, nt_.span[i],
                  nt_.op, node);
    return inner_.chargeCompute(node, modelCost, measuredSeconds);
  }
  const char* kindName() const noexcept override { return inner_.kindName(); }

 private:
  Clock& inner_;
  NodeTrace& nt_;
};

/// Transport decorator: forwards to the thread transport and times the
/// calls a node blocks on.
class TimedTransport final : public Transport {
 public:
  TimedTransport(Transport& inner, NodeTrace& nt) : inner_(inner), nt_(nt) {}
  void broadcast(int from, double now, const Message& msg) override {
    const std::int64_t t0 = nowNs();
    inner_.broadcast(from, now, msg);
    nt_.tr.record("net.broadcast", t0, nowNs(), nt_.span[std::size_t(from)],
                  nt_.op, from);
  }
  void send(int from, int to, double now, const Message& msg) override {
    const std::int64_t t0 = nowNs();
    inner_.send(from, to, now, msg);
    nt_.tr.record("net.send", t0, nowNs(), nt_.span[std::size_t(from)], nt_.op,
                  from);
  }
  std::vector<Message> collect(int node, double now) override {
    const std::int64_t t0 = nowNs();
    auto msgs = inner_.collect(node, now);
    nt_.tr.record("net.collect", t0, nowNs(), nt_.span[std::size_t(node)],
                  nt_.op, node);
    return msgs;
  }
  void kill(int node) override { inner_.kill(node); }
  void setAlive(int node, bool alive) override { inner_.setAlive(node, alive); }
  bool isAlive(int node) const override { return inner_.isAlive(node); }
  void announceTarget(int from, std::int64_t length) override {
    inner_.announceTarget(from, length);
  }
  NetworkStats stats() const override { return inner_.stats(); }
  const char* name() const noexcept override { return inner_.name(); }

 private:
  Transport& inner_;
  NodeTrace& nt_;
};

/// What the traced run returns (the parts of RunResult the benchmark
/// reads, plus node-metric counters).
struct TracedRun {
  RunResult run;
  std::int64_t adopts = 0;
  obs::MetricsSnapshot counters;
};

/// runThreads without failure/join injection, over the decorators: one
/// jthread per node, each running initialTick then tick until its budget
/// ends.
TracedRun runTraced(const Prepared& prep, const RunConfig& cfg, Tracer& tr,
                    int op) {
  ThreadNetwork net(buildTopology(cfg.topology, cfg.nodes));
  ThreadTransport threadTransport(net);
  WallClock wall(cfg.nodes, cfg.nodeSpeeds);
  NodeTrace nt{tr, op, std::vector<int>(std::size_t(cfg.nodes), -1),
               std::vector<char>(std::size_t(cfg.nodes), 0)};
  TimedTransport transport(threadTransport, nt);
  TimedClock clock(wall, nt);

  obs::MetricsRegistry registry;
  const NodeMetrics probes = NodeMetrics::attach(registry);
  Rng master(cfg.seed);
  std::vector<DistNode> nodes;
  nodes.reserve(std::size_t(cfg.nodes));
  for (int i = 0; i < cfg.nodes; ++i) {
    nodes.emplace_back(*prep.inst, prep.candidates(), cfg.node, i, master());
    nodes.back().setConstructionOrder(&prep.construction());
    nodes.back().setMetrics(probes);
  }
  std::atomic<bool> stop{false};
  const NodeRunner::Env env{transport, clock, cfg, nullptr, &stop, nullptr};
  std::vector<EventLog> logs(std::size_t(cfg.nodes));
  std::vector<NodeRunner> runners;
  runners.reserve(std::size_t(cfg.nodes));
  for (int i = 0; i < cfg.nodes; ++i)
    runners.emplace_back(nodes[std::size_t(i)], env, logs[std::size_t(i)],
                         nullptr);
  {
    std::vector<std::jthread> threads;
    threads.reserve(std::size_t(cfg.nodes));
    for (int i = 0; i < cfg.nodes; ++i) {
      threads.emplace_back([&, i] {
        const auto slot = std::size_t(i);
        const ScopedSpan nodeSpan(&tr, "core.node", -1, op, i);
        wall.startNode(i);
        NodeRunner& runner = runners[slot];
        nt.initial[slot] = 1;
        bool done = false;
        {
          const ScopedSpan s(&tr, "core.initial", nodeSpan.id(), op, i);
          nt.span[slot] = s.id();
          done = runner.initialTick();
        }
        nt.initial[slot] = 0;
        while (!done && !stop.load(std::memory_order_relaxed) &&
               wall.now(i) < cfg.timeLimitPerNode) {
          const ScopedSpan s(&tr, "core.tick", nodeSpan.id(), op, i);
          nt.span[slot] = s.id();
          done = runner.tick();
        }
      });
    }
  }

  TracedRun out;
  out.run.bestLength = std::numeric_limits<std::int64_t>::max();
  for (int i = 0; i < cfg.nodes; ++i) {
    const DistNode& node = nodes[std::size_t(i)];
    if (node.best().length() < out.run.bestLength) {
      out.run.bestLength = node.best().length();
      out.run.bestOrder = node.best().orderVector();
    }
    out.run.totalSteps += runners[std::size_t(i)].steps();
    out.run.totalRestarts += runners[std::size_t(i)].restarts();
    for (const NodeEvent& e : logs[std::size_t(i)])
      if (e.type == NodeEventType::kTourReceived) ++out.adopts;
  }
  out.run.net = transport.stats();
  out.counters = registry.snapshot();
  return out;
}

}  // namespace

Outcome runDistDrill(const Options& opt, Tracer* tr) {
  const JsonValue& pins = opt.pins;
  Outcome out;
  const std::int64_t passStart = nowNs();
  auto inst =
      std::make_shared<const Instance>(makeInstance(member(pins, "instance")));
  const double reference = pinNum(pins, "reference");
  const std::int64_t target = pinInt(pins, "target");
  const Prepared prep =
      prepare(inst, 1, int(pinInt(pins, "setup_repeats")), opt, tr, out);

  const auto& seeds = member(pins, "seeds").array;
  const double budget = pinNum(pins, "seconds_per_node");
  const int runs = sizedCount(opt.seconds, budget, std::int64_t(seeds.size()));

  std::vector<double> toTarget, ratios;
  std::int64_t steps = 0, restarts = 0, adopts = 0, messages = 0, bytes = 0;
  std::int64_t kicks = 0, flips = 0, undone = 0, rollbacks = 0;
  double solveSeconds = 0.0;
  std::int64_t bestSeen = std::numeric_limits<std::int64_t>::max();
  for (int i = 0; i < runs; ++i) {
    RunConfig cfg;
    cfg.runtime = RuntimeKind::kThreads;
    cfg.nodes = int(pinInt(pins, "nodes"));
    cfg.topology = TopologyKind::kHypercube;
    cfg.node = scaledNodeParams(*inst);
    cfg.timeLimitPerNode = budget;
    cfg.seed = static_cast<std::uint64_t>(seeds[std::size_t(i)].number);
    // Node threads report their bests concurrently; keep the first time
    // any of them reaches the target.
    std::atomic<std::int64_t> hitNs{-1};
    cfg.onBest = [&hitNs, target](double, std::int64_t len) {
      if (len > target) return;
      std::int64_t none = -1;
      hitNs.compare_exchange_strong(none, nowNs());
    };

    const int solve = tr != nullptr ? tr->open("dist.solve", -1, i) : -1;
    const std::int64_t t0 = nowNs();
    RunResult run;
    if (tr == nullptr) {
      run = runDistributed(prep.ctx, cfg);
    } else {
      TracedRun traced = runTraced(prep, cfg, *tr, i);
      run = std::move(traced.run);
      adopts += traced.adopts;
      kicks += traced.counters.counterValue("node.lk_kicks");
      flips += traced.counters.counterValue("node.lk_flips");
      undone += traced.counters.counterValue("node.lk_undone_flips");
      rollbacks += traced.counters.counterValue("node.clk_rollbacks");
    }
    const std::int64_t t1 = nowNs();
    if (tr != nullptr) tr->close(solve);
    {
      const ScopedSpan v(tr, "tsp.validate", -1, i);
      std::string problems = tourProblems(*inst, run.bestOrder, run.bestLength);
      const std::int64_t hit = hitNs.load();
      if (hit < 0) problems += " target not reached";
      out.check("dist seed " + std::to_string(cfg.seed), problems);
      // A miss counts at the cap: the whole budget.
      toTarget.push_back(hit >= 0 ? secondsBetween(t0, hit)
                                  : secondsBetween(t0, t1));
    }
    std::printf("op dist seed %llu time_to_target %.6f s final %lld steps %lld\n",
                static_cast<unsigned long long>(cfg.seed), toTarget.back(),
                static_cast<long long>(run.bestLength),
                static_cast<long long>(run.totalSteps));
    ratios.push_back(double(run.bestLength) / reference);
    bestSeen = std::min(bestSeen, run.bestLength);
    steps += run.totalSteps;
    restarts += run.totalRestarts;
    messages += run.net.messagesSent;
    bytes += run.net.bytesSent;
    solveSeconds += secondsBetween(t0, t1);
  }
  out.observed.emplace_back("best_final", bestSeen);
  out.wallSeconds = secondsBetween(passStart, nowNs());

  const double stepsPerS = double(steps) / solveSeconds;
  // Mean, not median: DistCLK reaches a target only at EA-step boundaries,
  // so per-seed times are quantized and a median jumps between steps.
  out.setE2e("time_to_target_s", mean(toTarget));
  out.setE2e("tour_ratio", median(ratios));
  out.setE2e("ops_per_s", stepsPerS);
  out.setE2e("setup_s", median(prep.buildSeconds));
  out.setE2e("peak_rss_mb", peakRssMb());
  out.setNamed("steps_per_s", stepsPerS, "steps/s");
  out.setNamed("seeds", runs, "count");
  if (tr == nullptr) return out;

  // Node-thread view: every node's wall splits into its initial step, the
  // four phases of its ticks, and loop overhead.
  const double compute = tr->seconds("core.compute");
  const double collect = tr->seconds("net.collect");
  const double broadcast = tr->seconds("net.broadcast") + tr->seconds("net.send");
  const double ticks = tr->seconds("core.tick");
  const double merge = ticks - compute - collect - broadcast;
  const double nodeWall = tr->seconds("core.node");
  out.breakdown("dist_drill.nodes", nodeWall,
                {{"core.initial", tr->seconds("core.initial")},
                 {"core.compute", compute},
                 {"core.merge", merge},
                 {"net.collect", collect},
                 {"net.broadcast", broadcast}});

  const double k = double(std::max<std::int64_t>(kicks, 1));
  out.setLayer("prep.kdtree_s", prep.kdtreeS);
  out.setLayer("prep.cand_s", prep.candS);
  out.setLayer("prep.construct_s", prep.constructS);
  out.setLayer("prep.construct_ratio",
               double(prep.constructionLength) / reference);
  out.setLayer("lk.initial_pass_s", median(tr->durations("core.initial")));
  out.setLayer("lk.kick_ns", compute / k * 1e9);
  out.setLayer("lk.flips_per_kick", double(flips) / k);
  out.setLayer("lk.undone_flip_share",
               double(undone) / double(std::max<std::int64_t>(flips + undone, 1)));
  out.setLayer("lk.rollback_share", double(rollbacks) / k);
  out.setLayer("core.compute_s", compute);
  out.setLayer("core.merge_s", merge);
  out.setLayer("core.compute_share",
               (compute + tr->seconds("core.initial_compute")) / nodeWall);
  out.setLayer("core.steps", double(steps));
  out.setLayer("core.restarts", double(restarts));
  out.setLayer("core.adopt_share",
               double(adopts) / double(std::max<std::int64_t>(steps, 1)));
  out.setLayer("net.messages", double(messages));
  out.setLayer("net.bytes", double(bytes));
  out.setLayer("net.broadcast_s", broadcast);
  out.setLayer("net.collect_s", collect);
  const double rest = out.breakdown(
      "dist_drill", out.wallSeconds,
      {{"prep.build", tr->seconds("prep.build")},
       {"dist.solve", tr->seconds("dist.solve")},
       {"tsp.validate", tr->seconds("tsp.validate")}});
  out.setLayer("trace.wall_s", out.wallSeconds);
  out.setLayer("trace.unattributed_s", rest);
  return out;
}

}  // namespace e2e
