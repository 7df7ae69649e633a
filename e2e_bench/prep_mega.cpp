// prep_mega: cold InstanceContext::build of a 10^6-city drill plate (seed
// 112, the pla85900 lineage) at prepThreads = the machine's CPU count,
// each followed by a check of the construction tour. kd-tree, candidate
// lists and Quick-Borůvka are <1% of the other workloads and ~100% here.
#include <algorithm>
#include <memory>
#include <thread>

#include "workloads.h"

namespace e2e {

using namespace distclk;

Outcome runPrepMega(const Options& opt, Tracer* tr) {
  const JsonValue& pins = opt.pins;
  Outcome out;
  const std::int64_t passStart = nowNs();
  auto inst =
      std::make_shared<const Instance>(makeInstance(member(pins, "instance")));
  const double reference = pinNum(pins, "reference");
  const int threads = int(std::max(1u, std::thread::hardware_concurrency()));
  const int builds = sizedCount(opt.seconds, pinNum(pins, "seconds_per_build"),
                                pinInt(pins, "max_builds"));
  const std::int64_t buildStart = nowNs();
  const Prepared prep = prepare(inst, threads, builds, opt, tr, out);
  out.wallSeconds = secondsBetween(passStart, nowNs());

  const double setup = median(prep.buildSeconds);
  const double ratio = double(prep.constructionLength) / reference;
  out.setE2e("time_to_target_s", median(prep.readySeconds));
  out.setE2e("tour_ratio", ratio);
  out.setE2e("ops_per_s", double(inst->n()) / setup);
  out.setE2e("setup_s", setup);
  out.setE2e("peak_rss_mb", peakRssMb());
  out.setNamed("cities_per_s", double(inst->n()) / setup, "cities/s");
  out.setNamed("builds", builds, "count");
  out.setNamed("prep_threads", threads, "count");
  if (tr == nullptr) return out;

  out.setLayer("prep.kdtree_s", prep.kdtreeS);
  out.setLayer("prep.cand_s", prep.candS);
  out.setLayer("prep.construct_s", prep.constructS);
  out.setLayer("prep.construct_ratio", ratio);
  const double kd = tr->seconds("prep.kdtree");
  const double cand = tr->seconds("prep.cand");
  const double construct = tr->seconds("prep.construct");
  const double rest = out.breakdown(
      "prep_mega", out.wallSeconds,
      {{"instance.generate", secondsBetween(passStart, buildStart)},
       {"prep.kdtree", kd},
       {"prep.cand", cand},
       {"prep.construct", construct},
       {"prep.build_other", tr->seconds("prep.build") - kd - cand - construct},
       {"tsp.validate", tr->seconds("tsp.validate")}});
  out.setLayer("trace.wall_s", out.wallSeconds);
  out.setLayer("trace.unattributed_s", rest);
  return out;
}

}  // namespace e2e
