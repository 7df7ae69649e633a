#include "bench_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "construct/construct.h"
#include "tsp/gen.h"
#include "tsp/kdtree.h"
#include "util/task_pool.h"

namespace e2e {

using namespace distclk;

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

const char* unitOf(std::span<const MetricSpec> table, std::string_view name) {
  for (const MetricSpec& m : table)
    if (name == m.name) return m.unit;
  throw std::logic_error("unknown metric '" + std::string(name) + "'");
}

void setMetric(std::vector<Metric>& into, std::span<const MetricSpec> table,
               std::string_view name, double value) {
  const char* unit = unitOf(table, name);
  for (Metric& m : into)
    if (m.name == name) {
      m.value = value;
      return;
    }
  into.push_back({std::string(name), value, unit});
}

}  // namespace

void Outcome::check(const std::string& op, const std::string& problems) {
  ++attempted;
  if (problems.empty()) return;
  ++failed;
  std::printf("FAIL %s:%s\n", op.c_str(), problems.c_str());
}

void Outcome::setE2e(std::string_view name, double value) {
  setMetric(e2e, kEndToEnd, name, value);
}

void Outcome::setLayer(std::string_view name, double value) {
  setMetric(layers, kLayers, name, value);
}

void Outcome::setNamed(std::string name, double value, std::string unit) {
  named.push_back({std::move(name), value, std::move(unit)});
}

void Outcome::matchPin(const Options& opt, const std::string& key,
                       std::int64_t observedValue, std::int64_t pinned,
                       std::string& problems) {
  observed.emplace_back(key, observedValue);
  if (opt.calibrate || observedValue == pinned) return;
  problems += " " + key + "=" + std::to_string(observedValue) + " (pinned " +
              std::to_string(pinned) + ")";
}

double Outcome::breakdown(
    const char* scope, double capacitySeconds,
    const std::vector<std::pair<std::string, double>>& parts) {
  double attributed = 0.0;
  for (const auto& [name, s] : parts) {
    std::printf("breakdown %s %s %.6f s (%.1f%%)\n", scope, name.c_str(), s,
                capacitySeconds > 0 ? 100.0 * s / capacitySeconds : 0.0);
    attributed += s;
  }
  const double rest = capacitySeconds - attributed;
  std::printf("breakdown %s unattributed %.6f s (%.1f%%) of %.6f s\n", scope,
              rest, capacitySeconds > 0 ? 100.0 * rest / capacitySeconds : 0.0,
              capacitySeconds);
  return rest;
}

int Tracer::open(std::string name, int parent, int op, int node) {
  const std::int64_t start = nowNs();
  const std::lock_guard lock(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({std::move(name), id, parent, op, node, start, -1});
  return id;
}

void Tracer::close(int id) {
  const std::int64_t end = nowNs();
  const std::lock_guard lock(mu_);
  spans_[std::size_t(id)].endNs = end;
}

int Tracer::record(std::string name, std::int64_t startNs, std::int64_t endNs,
                   int parent, int op, int node) {
  const std::lock_guard lock(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({std::move(name), id, parent, op, node, startNs, endNs});
  return id;
}

std::vector<double> Tracer::durations(std::string_view name) const {
  const std::lock_guard lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name && s.endNs >= 0)
      out.push_back(secondsBetween(s.startNs, s.endNs));
  return out;
}

double Tracer::seconds(std::string_view name) const {
  double total = 0.0;
  for (double d : durations(name)) total += d;
  return total;
}

void Tracer::write(const std::string& path, const std::string& header) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write spans to " + path);
  os << header << '\n';
  const std::lock_guard lock(mu_);
  for (const Span& s : spans_) {
    obs::JsonObject o;
    o.field("span", s.name)
        .field("id", s.id)
        .field("parent", s.parent)
        .field("op", s.op)
        .field("node", s.node)
        .field("start_ns", s.startNs)
        .field("end_ns", s.endNs);
    os << o.str() << '\n';
  }
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name, int parent, int op,
                       int node)
    : tracer_(tracer),
      id_(tracer != nullptr ? tracer->open(std::move(name), parent, op, node)
                            : -1) {}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr) tracer_->close(id_);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - double(lo);
  if (frac == 0.0) return v[lo];  // also keeps an infinite neighbour out
  return v[lo] + (v[lo + 1] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / double(v.size());
}

std::string tourProblems(const Instance& inst, std::span<const int> order,
                         std::int64_t length) {
  if (static_cast<int>(order.size()) != inst.n())
    return " tour has " + std::to_string(order.size()) + " cities, not " +
           std::to_string(inst.n());
  std::vector<char> seen(order.size(), 0);
  for (const int c : order) {
    if (c < 0 || c >= inst.n() || seen[std::size_t(c)] != 0)
      return " tour is not a permutation";
    seen[std::size_t(c)] = 1;
  }
  const std::int64_t actual = inst.tourLength(order);
  if (actual != length)
    return " reported length " + std::to_string(length) + " != tourLength " +
           std::to_string(actual);
  return "";
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

Instance makeFamilyInstance(const std::string& family, int n,
                            std::uint64_t seed) {
  const std::string name = family + std::to_string(n);
  if (family == "uniform") return uniformSquare(name, n, seed);
  if (family == "clustered") return clustered(name, n, 10, seed);
  if (family == "drill") return drillPlate(name, n, seed);
  if (family == "road") return roadNetwork(name, n, seed);
  throw std::invalid_argument("unknown instance family '" + family + "'");
}

Instance makeInstance(const JsonValue& spec) {
  const JsonValue& family = member(spec, "family");
  return makeFamilyInstance(family.string, static_cast<int>(pinInt(spec, "n")),
                            static_cast<std::uint64_t>(pinInt(spec, "seed")));
}

const JsonValue& member(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr)
    throw std::runtime_error("pins.json: missing '" + std::string(key) + "'");
  return *v;
}

std::int64_t pinInt(const JsonValue& obj, std::string_view key) {
  return std::llround(pinNum(obj, key));
}

double pinNum(const JsonValue& obj, std::string_view key) {
  const JsonValue& v = member(obj, key);
  if (v.kind != JsonValue::Kind::kNumber)
    throw std::runtime_error("pins.json: '" + std::string(key) +
                             "' is not a number");
  return v.number;
}

int sizedCount(double seconds, double secondsPerOp, std::int64_t cap) {
  const auto n = static_cast<std::int64_t>(std::lround(seconds / secondsPerOp));
  return static_cast<int>(std::clamp<std::int64_t>(n, 1, std::max<std::int64_t>(cap, 1)));
}

Prepared prepare(std::shared_ptr<const Instance> inst, int threads, int repeats,
                 const Options& opt, Tracer* tr, Outcome& out) {
  Prepared p;
  p.inst = std::move(inst);
  const std::int64_t pinned = opt.pins.integer("construction", -1);
  std::vector<double> kdtree, cand, construct;
  for (int r = 0; r < repeats; ++r) {
    const std::int64_t start = nowNs();
    std::int64_t reported = 0;
    if (tr == nullptr) {
      PreprocessParams params;
      params.prepThreads = threads;
      p.ctx.reset();  // free the previous build first: peak RSS = one build
      p.ctx = InstanceContext::build(p.inst, params);
      const PreprocessBuildStats& bs = p.ctx->buildStats();
      kdtree.push_back(bs.kdtreeMs * 1e-3);
      cand.push_back(bs.candMs * 1e-3);
      construct.push_back(bs.constructMs * 1e-3);
      reported = p.ctx->constructionLength();
    } else {
      // The same phases InstanceContext::build runs, with the same pool.
      const ScopedSpan build(tr, "prep.build", -1, r);
      p.cand.reset();
      p.order.clear();
      std::optional<TaskPool> pool;
      if (threads > 1) pool.emplace(threads);
      TaskPool* pp = pool ? &*pool : nullptr;
      std::optional<KdTree> tree;
      {
        const ScopedSpan s(tr, "prep.kdtree", build.id(), r);
        tree.emplace(p.inst->points(), pp);
      }
      {
        const ScopedSpan s(tr, "prep.cand", build.id(), r);
        p.cand = std::make_unique<CandidateLists>(
            *p.inst, PreprocessParams{}.candidateK,
            CandidateLists::Kind::kNearest, &*tree, pp);
      }
      {
        const ScopedSpan s(tr, "prep.construct", build.id(), r);
        p.order = quickBoruvkaTour(*p.inst, *p.cand);
        reported = p.inst->tourLength(p.order);
      }
    }
    p.buildSeconds.push_back(secondsBetween(start, nowNs()));
    {
      const ScopedSpan s(tr, "tsp.validate", -1, r);
      std::string problems = tourProblems(*p.inst, p.construction(), reported);
      out.matchPin(opt, "construction", reported, pinned, problems);
      out.check("construction tour of build " + std::to_string(r), problems);
    }
    p.constructionLength = reported;
    p.readySeconds.push_back(secondsBetween(start, nowNs()));
  }
  if (tr != nullptr) {
    kdtree = tr->durations("prep.kdtree");
    cand = tr->durations("prep.cand");
    construct = tr->durations("prep.construct");
  }
  p.kdtreeS = median(kdtree);
  p.candS = median(cand);
  p.constructS = median(construct);
  // The library's own phase timings, to cross-check the traced spans.
  if (tr == nullptr) {
    out.setNamed("build_stats.kdtree_s", p.kdtreeS, "s");
    out.setNamed("build_stats.cand_s", p.candS, "s");
    out.setNamed("build_stats.construct_s", p.constructS, "s");
  }
  return p;
}

}  // namespace e2e
