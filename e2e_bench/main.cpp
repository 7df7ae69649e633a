// The end-to-end benchmark's binary (README.md in this directory); run.py
// builds and runs it.
//
//   e2e_bench --workload clk_drill|dist_drill|serve_mix|prep_mega
//             --seed N --seconds S --trace 0|1 --pins pins.json --out DIR
//             [--smoke] [--commit TEXT]
//             [--calibrate [--reference-seconds T]]
//
// Prints a provenance line, one line per metric, and as the last line of
// stdout one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0; with --trace 1 an untraced and then a
// traced pass run, their end-to-end figures are printed side by side, the
// traced pass's spans are written to DIR, and the JSON carries the
// per-layer metrics. Exits 1 when an output check failed, 2 on a usage or
// setup error.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

using namespace e2e;
using distclk::obs::JsonObject;

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void print(const char* kind, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("%s %s %.9g %s\n", kind, m.name.c_str(), m.value,
                m.unit.c_str());
}

/// `metrics` in the order of `table`; a metric the pass did not set is 0.
std::vector<Metric> ordered(std::span<const MetricSpec> table,
                            const std::vector<Metric>& metrics) {
  std::vector<Metric> out;
  for (const MetricSpec& spec : table) {
    Metric m{spec.name, 0.0, spec.unit};
    for (const Metric& have : metrics)
      if (have.name == spec.name) m.value = have.value;
    out.push_back(m);
  }
  return out;
}

/// fail_share is printed, not part of the result object: it is 0 on a
/// healthy run, and the result's "failed" field already carries it.
void printFailShare(std::int64_t attempted, std::int64_t failed) {
  std::printf("metric fail_share %.9g ratio (%lld of %lld operations)\n",
              double(failed) / double(attempted),
              static_cast<long long>(failed), static_cast<long long>(attempted));
}

std::string resultLine(std::int64_t attempted, std::int64_t failed,
                       const std::vector<Metric>& ms) {
  JsonObject metrics;
  for (const Metric& m : ms) {
    JsonObject v;
    v.field("value", m.value).field("unit", m.unit);
    metrics.raw(m.name, v.str());
  }
  JsonObject line;
  line.field("correct", failed == 0)
      .field("attempted", attempted)
      .field("failed", failed)
      .raw("metrics", metrics.str());
  return line.str();
}

int run(int argc, char** argv) {
  std::string workload, pinsPath, commit = "unknown";
  Options opt;
  bool trace = false;
  double referenceSeconds = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") workload = value();
    else if (a == "--seed") opt.seed = std::stoull(value());
    else if (a == "--seconds") opt.seconds = std::stod(value());
    else if (a == "--trace") trace = value() == "1";
    else if (a == "--pins") pinsPath = value();
    else if (a == "--out") opt.outDir = value();
    else if (a == "--commit") commit = value();
    else if (a == "--smoke") opt.smoke = true;
    else if (a == "--calibrate") opt.calibrate = true;
    else if (a == "--reference-seconds") referenceSeconds = std::stod(value());
    else throw std::invalid_argument("unknown argument " + a);
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads)
    if (workload == candidate.name) w = &candidate;
  if (w == nullptr) throw std::invalid_argument("unknown --workload '" + workload + "'");
  if (!(opt.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  opt.workload = workload;

  const JsonValue pins = distclk::obs::parseJson(readFile(pinsPath));
  const JsonValue& wp = member(pins, workload);
  opt.pins = opt.smoke ? member(wp, "smoke") : wp;

  JsonObject prov;
  prov.field("commit", commit)
      .field("nproc", int(std::thread::hardware_concurrency()))
      .field("compiler", E2E_COMPILER)
      .field("build_type", E2E_BUILD_TYPE)
      .field("workload", workload)
      .field("seed", opt.seed)
      .field("seconds", opt.seconds)
      .field("trace", trace)
      .field("smoke", opt.smoke);
  std::printf("provenance %s\n", prov.str().c_str());
  std::fflush(stdout);

  if (opt.calibrate) return calibrate(*w, opt, referenceSeconds);

  const Outcome untraced = w->run(opt, nullptr);
  const std::vector<Metric> e2e = ordered(kEndToEnd, untraced.e2e);
  print("e2e", e2e);
  print("metric", untraced.named);
  if (!trace) {
    printFailShare(untraced.attempted, untraced.failed);
    std::puts(resultLine(untraced.attempted, untraced.failed, e2e).c_str());
    return untraced.failed == 0 ? 0 : 1;
  }

  Tracer tracer;
  Outcome traced = w->run(opt, &tracer);
  print("metric", traced.named);
  const std::vector<Metric> tracedE2e = ordered(kEndToEnd, traced.e2e);
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    const double u = e2e[i].value, t = tracedE2e[i].value;
    std::printf("overhead %s untraced %.9g traced %.9g %s (%+.2f%%)\n",
                e2e[i].name.c_str(), u, t, e2e[i].unit.c_str(),
                u != 0 ? 100.0 * (t / u - 1) : 0.0);
  }
  traced.setLayer("trace.overhead_share",
                  traced.wallSeconds / untraced.wallSeconds - 1.0);
  const std::vector<Metric> layers = ordered(kLayers, traced.layers);
  print("layer", layers);
  const std::string spans = opt.outDir + "/spans-" + workload + "-seed" +
                            std::to_string(opt.seed) + ".jsonl";
  tracer.write(spans, prov.str());
  std::printf("spans written to %s\n", spans.c_str());
  const std::int64_t attempted = untraced.attempted + traced.attempted;
  const std::int64_t failed = untraced.failed + traced.failed;
  printFailShare(attempted, failed);
  std::puts(resultLine(attempted, failed, layers).c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 2;
  }
}
