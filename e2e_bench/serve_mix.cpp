// serve_mix: an in-process SolverPool (2 workers, pool prep budget 2, the
// JSONL trace sink and metrics registry on, as distclk_serve --trace runs)
// fed by a closed loop: one submitting thread keeps 4 jobs outstanding and
// submits the next one as soon as a job finishes. Jobs are simulated-runtime
// DistCLK runs under the modeled cost model (deterministic work per job) on
// 4 nodes. Even-numbered jobs repeat a few pinned hot instances (context
// cache hits after the first); odd-numbered ones are fresh instances on a
// pinned family x size grid, generated from the workload seed (cache misses,
// i.e. builds).
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "experiments/harness.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "svc/solver_pool.h"
#include "util/rng.h"
#include "workloads.h"

namespace e2e {

using namespace distclk;

namespace {

/// Timing decorator around the pool's trace sink: counts the records and
/// bytes handed to the JSONL writer and the time spent writing them.
class TimingSink final : public obs::TraceSink {
 public:
  explicit TimingSink(obs::TraceSink& inner) : inner_(inner) {}
  void write(std::string_view line) override {
    const std::int64_t t0 = nowNs();
    inner_.write(line);
    ns_.fetch_add(nowNs() - t0, std::memory_order_relaxed);
    records_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(std::int64_t(line.size()) + 1, std::memory_order_relaxed);
  }
  void flush() override {
    const std::int64_t t0 = nowNs();
    inner_.flush();
    ns_.fetch_add(nowNs() - t0, std::memory_order_relaxed);
  }
  double seconds() const { return double(ns_.load()) * 1e-9; }
  std::int64_t records() const { return records_.load(); }
  std::int64_t bytes() const { return bytes_.load(); }

 private:
  obs::TraceSink& inner_;
  std::atomic<std::int64_t> ns_{0};
  std::atomic<std::int64_t> records_{0};
  std::atomic<std::int64_t> bytes_{0};
};

/// Client side of the closed loop: keeps terminal results and wakes the
/// submitter whenever a job finishes.
class Collector final : public svc::JobSink {
 public:
  struct Done {
    svc::JobResult result;
    std::int64_t endNs = 0;
  };

  void onResult(const svc::JobResult& r) override {
    const std::int64_t end = nowNs();
    {
      const std::lock_guard lock(mu_);
      done_.push_back({r, end});
    }
    cv_.notify_all();
  }
  /// Blocks until fewer than `limit` of the `submitted` jobs are unfinished.
  void waitBelow(std::size_t submitted, std::size_t limit) {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return submitted - done_.size() < limit; });
  }
  std::vector<Done> take() {
    const std::lock_guard lock(mu_);
    return std::move(done_);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Done> done_;
};

struct JobPlan {
  std::shared_ptr<const Instance> inst;
  std::uint64_t seed = 0;
  int hot = -1;                ///< hot-instance index, -1 for a fresh one
  std::int64_t pinnedFinal = -1;
};

}  // namespace

Outcome runServeMix(const Options& opt, Tracer* tr) {
  const JsonValue& pins = opt.pins;
  Outcome out;
  const std::int64_t passStart = nowNs();
  const int jobs = sizedCount(opt.seconds, pinNum(pins, "seconds_per_job"),
                              pinInt(pins, "max_jobs"));
  const auto outstanding = std::size_t(pinInt(pins, "outstanding"));

  // The job plan: hot instances are pinned (their finals repeat exactly);
  // fresh instances and their job seeds come from the workload seed.
  const auto& hotPins = member(pins, "hot").array;
  std::vector<std::shared_ptr<const Instance>> hot;
  for (const JsonValue& h : hotPins)
    hot.push_back(
        std::make_shared<const Instance>(makeInstance(member(h, "instance"))));
  const JsonValue& fresh = member(pins, "fresh");
  const auto& families = member(fresh, "families").array;
  const auto& sizes = member(fresh, "sizes").array;
  Rng rng(opt.seed);
  std::vector<JobPlan> plan;
  int freshCount = 0;
  for (int i = 0; i < jobs; ++i) {
    JobPlan p;
    if (i % 2 == 0) {
      const auto k = std::size_t(i / 2) % hot.size();
      const auto& seeds = member(hotPins[k], "seeds").array;
      const JsonValue& s = seeds[std::size_t(i / 2) / hot.size() % seeds.size()];
      p.inst = hot[k];
      p.seed = static_cast<std::uint64_t>(pinInt(s, "seed"));
      p.hot = int(k);
      p.pinnedFinal = s.integer("final", -1);
    } else {
      // Every run cycles through the same family x size grid, so the work
      // per run is fixed; coordinates and job seeds follow the workload seed.
      const auto k = std::size_t(freshCount);
      const std::string& family = families[k % families.size()].string;
      const int n = int(sizes[k / families.size() % sizes.size()].number);
      const std::uint64_t instSeed = rng();
      p.inst = std::make_shared<const Instance>(
          makeFamilyInstance(family, n, instSeed));
      p.seed = rng();
      ++freshCount;
    }
    plan.push_back(std::move(p));
  }
  int hotUsed = 0;
  for (std::size_t k = 0; k < hot.size(); ++k)
    if (std::any_of(plan.begin(), plan.end(),
                    [&](const JobPlan& p) { return p.hot == int(k); }))
      ++hotUsed;

  obs::MetricsRegistry metrics;
  obs::JsonlTraceSink jsonl(opt.outDir + "/serve_mix.trace.jsonl");
  std::optional<TimingSink> timed;
  if (tr != nullptr) timed.emplace(jsonl);
  svc::SolverPoolOptions po;
  po.workers = int(pinInt(pins, "workers"));
  po.prepThreads = int(pinInt(pins, "prep_threads"));
  po.contextCacheCapacity = std::size_t(pinInt(pins, "cache_capacity"));
  po.metrics = &metrics;
  po.trace = timed ? static_cast<obs::TraceSink*>(&*timed) : &jsonl;

  Collector collector;
  std::vector<std::int64_t> submitNs(std::size_t(jobs), 0);
  std::size_t accepted = 0;
  std::int64_t loopStart = 0, loopEnd = 0;
  ContextCache::Stats cache;
  {
    svc::SolverPool pool(po);
    loopStart = nowNs();
    for (int i = 0; i < jobs; ++i) {
      collector.waitBelow(accepted, outstanding);
      const JobPlan& p = plan[std::size_t(i)];
      svc::JobSpec spec;
      spec.id = "job-" + std::to_string(i);
      spec.instance = p.inst;
      spec.preprocess.prepThreads = po.prepThreads;  // the pool clamps it
      spec.run.runtime = RuntimeKind::kSim;
      spec.run.costModel = CostModel::kModeled;
      spec.run.nodes = int(pinInt(pins, "nodes"));
      spec.run.node = scaledNodeParams(*p.inst);
      spec.run.timeLimitPerNode = pinNum(pins, "virtual_seconds");
      spec.run.seed = p.seed;
      submitNs[std::size_t(i)] = nowNs();
      if (pool.submit(std::move(spec), &collector))
        ++accepted;
      else
        out.check("submit job-" + std::to_string(i), " rejected");
    }
    pool.drain();
    loopEnd = nowNs();
    cache = pool.contexts().stats();
  }  // the pool joins its workers here

  const std::vector<Collector::Done> done = collector.take();
  std::vector<double> latency, setupMiss, setupHit, queue, solve, ratios;
  std::vector<double> kdtree, cand, construct;
  std::map<svc::JobState, int> states;
  std::int64_t steps = 0, messages = 0;
  double setupSum = 0.0, solveSum = 0.0;
  for (const Collector::Done& d : done) {
    const svc::JobResult& r = d.result;
    const int i = std::stoi(r.id.substr(4));
    const JobPlan& p = plan[std::size_t(i)];
    const std::int64_t submitted = submitNs[std::size_t(i)];
    ++states[r.state];
    std::string problems;
    if (r.state != svc::JobState::kCompleted)
      problems += std::string(" state ") + svc::toString(r.state) + " " + r.error;
    else
      problems += tourProblems(*p.inst, r.bestOrder, r.bestLength);
    if (p.hot >= 0) {
      out.matchPin(opt,
                   "hot." + std::to_string(p.hot) + ".seed." +
                       std::to_string(p.seed) + ".final",
                   r.bestLength, p.pinnedFinal, problems);
      ratios.push_back(double(r.bestLength) /
                       pinNum(hotPins[std::size_t(p.hot)], "reference"));
    }
    out.check(r.id, problems);
    // Failed or expired jobs count beyond every percentile.
    latency.push_back(r.state == svc::JobState::kCompleted
                          ? secondsBetween(submitted, d.endNs)
                          : std::numeric_limits<double>::infinity());
    (r.cacheHit ? setupHit : setupMiss).push_back(r.setupSeconds);
    if (!r.cacheHit) {
      kdtree.push_back(r.prepKdtreeMs * 1e-3);
      cand.push_back(r.prepCandMs * 1e-3);
      construct.push_back(r.prepConstructMs * 1e-3);
    }
    queue.push_back(r.queueSeconds);
    solve.push_back(r.solveSeconds);
    setupSum += r.setupSeconds;
    solveSum += r.solveSeconds;
    steps += r.totalSteps;
    messages += r.messagesSent;
    if (tr != nullptr) {
      // Reconstructed from the job's own latency decomposition.
      const int job = tr->record("svc.job", submitted, d.endNs, -1, i);
      const std::int64_t q = submitted + std::llround(r.queueSeconds * 1e9);
      const std::int64_t s = q + std::llround(r.setupSeconds * 1e9);
      tr->record("svc.queue", submitted, q, job, i);
      tr->record("svc.setup", q, s, job, i);
      tr->record("svc.solve", s, s + std::llround(r.solveSeconds * 1e9), job, i);
    }
  }

  // Reconciliation: every submitted job reached exactly one terminal state,
  // the registry agrees, and the cache built each distinct instance once.
  {
    std::string problems;
    int terminal = 0;
    for (const auto& [state, count] : states) terminal += count;
    if (std::size_t(terminal) != accepted || done.size() != accepted)
      problems += " terminal " + std::to_string(terminal) + " != submitted " +
                  std::to_string(accepted);
    const obs::MetricsSnapshot snap = metrics.snapshot();
    if (snap.counterValue("svc.jobs_completed") !=
        states[svc::JobState::kCompleted])
      problems += " svc.jobs_completed disagrees";
    const std::int64_t distinct = hotUsed + freshCount;
    if (cache.builds != distinct)
      problems += " cache builds " + std::to_string(cache.builds) +
                  " != distinct instances " + std::to_string(distinct);
    if (cache.hits + cache.misses != std::int64_t(accepted))
      problems += " cache lookups != jobs";
    out.check("serve reconciliation", problems);
  }
  out.wallSeconds = secondsBetween(passStart, nowNs());

  const double loopSeconds = secondsBetween(loopStart, loopEnd);
  const double jobsPerS = double(states[svc::JobState::kCompleted]) / loopSeconds;
  const double p50 = quantile(latency, 0.5);
  const double p90 = quantile(latency, 0.9);
  out.setE2e("time_to_target_s", p50);
  out.setE2e("tour_ratio", median(ratios));
  out.setE2e("ops_per_s", jobsPerS);
  out.setE2e("setup_s", median(setupMiss));
  out.setE2e("peak_rss_mb", peakRssMb());
  out.setNamed("jobs_per_s", jobsPerS, "jobs/s");
  out.setNamed("job_latency_p50_s", p50, "s");
  out.setNamed("job_latency_p90_s", p90, "s");
  out.setNamed("jobs", double(done.size()), "count");
  out.setNamed("jobs_beyond_p90",
               double(std::count_if(latency.begin(), latency.end(),
                                    [&](double v) { return v > p90; })),
               "count");
  if (tr == nullptr) return out;

  out.setLayer("prep.kdtree_s", median(kdtree));
  out.setLayer("prep.cand_s", median(cand));
  out.setLayer("prep.construct_s", median(construct));
  out.setLayer("core.steps", double(steps));
  out.setLayer("net.messages", double(messages));
  out.setLayer("svc.queue_s", median(queue));
  out.setLayer("svc.setup_hit_s", median(setupHit));
  out.setLayer("svc.setup_miss_s", median(setupMiss));
  out.setLayer("svc.solve_s", median(solve));
  out.setLayer("svc.cache_hit_share",
               double(cache.hits) /
                   double(std::max<std::int64_t>(cache.hits + cache.misses, 1)));
  out.setLayer("obs.trace_records", double(timed->records()));
  out.setLayer("obs.trace_bytes", double(timed->bytes()));
  out.setLayer("obs.trace_write_s", timed->seconds());
  // Worker view: the pool's workers were available for workers x loop
  // seconds; jobs spent it in setup, solve and trace writes.
  const double rest = out.breakdown(
      "serve_mix.workers", double(po.workers) * loopSeconds,
      {{"svc.setup", setupSum},
       {"svc.solve", solveSum},
       {"obs.trace_write", timed->seconds()}});
  out.setLayer("trace.wall_s", out.wallSeconds);
  out.setLayer("trace.unattributed_s", rest);
  return out;
}

}  // namespace e2e
