// clk_drill: sequential Chained-LK (default Random-walk kick, array tour,
// one thread) on the fl3795 drill-plate stand-in, from the cached
// Quick-Borůvka tour, over a pinned seed set with a pinned kick budget. The
// trajectory is a pure function of the seed, so every final length repeats
// exactly and only the speed of the lk/tsp layers moves the times.
#include <cmath>
#include <cstdio>
#include <memory>

#include "lk/chained_lk.h"
#include "tsp/tour.h"
#include "util/rng.h"
#include "workloads.h"

namespace e2e {

using namespace distclk;

Outcome runClkDrill(const Options& opt, Tracer* tr) {
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
  const int runs = sizedCount(opt.seconds, pinNum(pins, "seconds_per_seed"),
                              std::int64_t(seeds.size()));
  ClkOptions co;
  co.maxKicks = pinInt(pins, "kicks");

  std::vector<double> toTarget, ratios, initialPass;
  ClkResult sum;
  double kickPhase = 0.0;
  for (int i = 0; i < runs; ++i) {
    const JsonValue& s = seeds[std::size_t(i)];
    const auto seed = static_cast<std::uint64_t>(pinInt(s, "seed"));
    Tour tour(*inst, prep.construction());
    Rng rng(seed);
    // The first callback fires when the initial LK pass returns; the first
    // one at or below the target marks time to target.
    double firstCall = -1.0, reached = -1.0;
    const int solve = tr != nullptr ? tr->open("clk.solve", -1, i) : -1;
    const std::int64_t t0 = nowNs();
    const ClkResult res = chainedLinKernighan(
        tour, prep.candidates(), rng, co, [&](double t, std::int64_t len) {
          if (firstCall < 0) firstCall = t;
          if (reached < 0 && len <= target) reached = t;
        });
    const std::int64_t t1 = nowNs();
    if (tr != nullptr) {
      const std::int64_t split = t0 + std::llround(firstCall * 1e9);
      tr->record("lk.initial_pass", t0, split, solve, i);
      tr->record("lk.kicks", split, t1, solve, i);
      tr->close(solve);
    }
    {
      const ScopedSpan v(tr, "tsp.validate", -1, i);
      std::string problems = tourProblems(*inst, tour.order(), res.length);
      out.matchPin(opt, "seed." + std::to_string(seed) + ".final", res.length,
                   s.integer("final", -1), problems);
      if (reached < 0) problems += " target not reached";
      out.check("clk seed " + std::to_string(seed), problems);
    }
    std::printf("op clk seed %llu time_to_target %.6f s final %lld kicks %lld\n",
                static_cast<unsigned long long>(seed), reached,
                static_cast<long long>(res.length),
                static_cast<long long>(res.kicks));
    // A miss counts at the cap: the whole budget.
    toTarget.push_back(reached >= 0 ? reached : res.seconds);
    ratios.push_back(double(res.length) / reference);
    initialPass.push_back(firstCall);
    kickPhase += secondsBetween(t0, t1) - firstCall;
    sum.kicks += res.kicks;
    sum.flips += res.flips;
    sum.undoneFlips += res.undoneFlips;
    sum.improvements += res.improvements;
    sum.rollbacks += res.rollbacks;
    sum.seconds += res.seconds;
  }
  out.wallSeconds = secondsBetween(passStart, nowNs());

  const double kicksPerS = double(sum.kicks) / sum.seconds;
  out.setE2e("time_to_target_s", median(toTarget));
  out.setE2e("tour_ratio", median(ratios));
  out.setE2e("ops_per_s", kicksPerS);
  out.setE2e("setup_s", median(prep.buildSeconds));
  out.setE2e("peak_rss_mb", peakRssMb());
  out.setNamed("kicks_per_s", kicksPerS, "kicks/s");
  out.setNamed("seeds", runs, "count");
  if (tr == nullptr) return out;

  const double kicks = double(std::max<std::int64_t>(sum.kicks, 1));
  out.setLayer("prep.kdtree_s", prep.kdtreeS);
  out.setLayer("prep.cand_s", prep.candS);
  out.setLayer("prep.construct_s", prep.constructS);
  out.setLayer("prep.construct_ratio",
               double(prep.constructionLength) / reference);
  out.setLayer("lk.initial_pass_s", median(initialPass));
  out.setLayer("lk.kick_ns", kickPhase / kicks * 1e9);
  out.setLayer("lk.flips_per_kick", double(sum.flips) / kicks);
  out.setLayer("lk.undone_flip_share",
               double(sum.undoneFlips) /
                   double(std::max<std::int64_t>(sum.flips + sum.undoneFlips, 1)));
  out.setLayer("lk.improve_share", double(sum.improvements) / kicks);
  out.setLayer("lk.rollback_share", double(sum.rollbacks) / kicks);
  const double rest = out.breakdown(
      "clk_drill", out.wallSeconds,
      {{"prep.build", tr->seconds("prep.build")},
       {"lk.initial_pass", tr->seconds("lk.initial_pass")},
       {"lk.kicks", tr->seconds("lk.kicks")},
       {"tsp.validate", tr->seconds("tsp.validate")}});
  out.setLayer("trace.wall_s", out.wallSeconds);
  out.setLayer("trace.unattributed_s", rest);
  return out;
}

}  // namespace e2e
