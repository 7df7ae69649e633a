// Plumbing shared by the end-to-end workloads: run options, the pinned
// figures of pins.json, result reporting with output checks, the in-memory
// span recorder of the traced pass, and the preprocessing step every
// workload starts with. Spans are taken around calls into the library's
// public entry points only; nothing inside src/ is instrumented.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "tsp/instance.h"
#include "tsp/instance_context.h"
#include "tsp/neighbors.h"

namespace e2e {

using distclk::obs::JsonValue;

/// Monotonic nanoseconds (steady clock); every span and latency uses it.
std::int64_t nowNs();
inline double secondsBetween(std::int64_t startNs, std::int64_t endNs) {
  return double(endNs - startNs) * 1e-9;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool smoke = false;
  /// Record observed exact figures instead of enforcing their pins.
  bool calibrate = false;
  std::string outDir = ".";
  /// The workload's object from pins.json (its "smoke" member under --smoke).
  JsonValue pins;
};

/// A metric name and its unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every workload reports (BENCHMARK.json
/// "end_to_end", same order).
inline constexpr MetricSpec kEndToEnd[] = {
    {"time_to_target_s", "s"}, {"tour_ratio", "ratio"},
    {"ops_per_s", "1/s"},      {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/// The per-layer metrics of the traced pass (BENCHMARK.json "per_layer",
/// same order). A layer that does no work on a workload reports 0.
inline constexpr MetricSpec kLayers[] = {
    {"prep.kdtree_s", "s"},          {"prep.cand_s", "s"},
    {"prep.construct_s", "s"},       {"prep.construct_ratio", "ratio"},
    {"lk.initial_pass_s", "s"},      {"lk.kick_ns", "ns"},
    {"lk.flips_per_kick", "count"},  {"lk.undone_flip_share", "ratio"},
    {"lk.improve_share", "ratio"},   {"lk.rollback_share", "ratio"},
    {"core.compute_s", "s"},         {"core.merge_s", "s"},
    {"core.compute_share", "ratio"}, {"core.steps", "count"},
    {"core.restarts", "count"},      {"core.adopt_share", "ratio"},
    {"net.messages", "count"},       {"net.bytes", "B"},
    {"net.broadcast_s", "s"},        {"net.collect_s", "s"},
    {"svc.queue_s", "s"},            {"svc.setup_hit_s", "s"},
    {"svc.setup_miss_s", "s"},       {"svc.solve_s", "s"},
    {"svc.cache_hit_share", "ratio"}, {"obs.trace_records", "count"},
    {"obs.trace_bytes", "B"},        {"obs.trace_write_s", "s"},
    {"trace.wall_s", "s"},           {"trace.unattributed_s", "s"},
    {"trace.overhead_share", "ratio"},
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one pass over a workload produced.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> e2e;     ///< kEndToEnd values
  std::vector<Metric> named;   ///< workload-specific names (kicks_per_s, ...)
  std::vector<Metric> layers;  ///< kLayers values (traced pass only)
  /// Exact figures seen while checking pins (printed under --calibrate).
  std::vector<std::pair<std::string, std::int64_t>> observed;
  double wallSeconds = 0.0;    ///< the whole pass

  /// Counts one operation; an empty `problems` passes it, anything else
  /// fails it and is printed.
  void check(const std::string& op, const std::string& problems);
  void setE2e(std::string_view name, double value);
  void setLayer(std::string_view name, double value);
  void setNamed(std::string name, double value, std::string unit);
  /// Compares an exact figure with its pin (-1 = not pinned yet). Under
  /// --calibrate the pin is not enforced. Appends to `problems` on mismatch.
  void matchPin(const Options& opt, const std::string& key,
                std::int64_t observedValue, std::int64_t pinned,
                std::string& problems);
  /// Prints the additive wall-time breakdown of the traced pass, sets
  /// trace.wall_s and trace.unattributed_s, and returns the remainder.
  double breakdown(const char* scope, double capacitySeconds,
                   const std::vector<std::pair<std::string, double>>& parts);
};

/// In-memory span log of the traced pass. Thread-safe; spans stay in memory
/// until write() dumps them as JSONL when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    int id = 0;
    int parent = -1;  ///< enclosing span, -1 at top level
    int op = -1;      ///< operation (seed solve, job, build) it belongs to
    int node = -1;    ///< DistCLK node, -1 on the main thread
    std::int64_t startNs = 0;
    std::int64_t endNs = -1;  ///< -1 while open
  };

  int open(std::string name, int parent = -1, int op = -1, int node = -1);
  void close(int id);
  /// Records an interval measured elsewhere.
  int record(std::string name, std::int64_t startNs, std::int64_t endNs,
             int parent = -1, int op = -1, int node = -1);
  /// Sum of the closed spans called `name`, in seconds.
  double seconds(std::string_view name) const;
  /// Durations of the closed spans called `name`, in seconds.
  std::vector<double> durations(std::string_view name) const;
  void write(const std::string& path, const std::string& header) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times a scope into `tracer`; does nothing when the tracer is null (the
/// untraced pass runs the same code).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int parent = -1, int op = -1,
             int node = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
double mean(const std::vector<double>& v);

/// Problems with a returned tour ("" when it is a permutation of the n
/// cities whose Instance::tourLength equals `length`).
std::string tourProblems(const distclk::Instance& inst, std::span<const int> order,
                         std::int64_t length);

/// Peak resident set size of this process in MiB.
double peakRssMb();

/// Generator by family name: uniform | clustered | drill | road.
distclk::Instance makeFamilyInstance(const std::string& family, int n,
                                     std::uint64_t seed);
/// Same, from a pins.json spec {"family", "n", "seed"}.
distclk::Instance makeInstance(const JsonValue& spec);

/// pins.json accessors; missing keys throw.
const JsonValue& member(const JsonValue& obj, std::string_view key);
std::int64_t pinInt(const JsonValue& obj, std::string_view key);
double pinNum(const JsonValue& obj, std::string_view key);

/// Operations a run of `seconds` performs at `secondsPerOp` each, in
/// [1, cap]. Work is a function of --seconds only, never of machine speed.
int sizedCount(double seconds, double secondsPerOp, std::int64_t cap);

/// Preprocessing of one instance, repeated so setup_s is a median. The
/// untraced pass calls InstanceContext::build, the path every run and job
/// takes; the traced pass times the three public phases (KdTree,
/// CandidateLists, quickBoruvkaTour) directly with the same task pool.
/// Every repeat checks the construction tour against its pinned length.
struct Prepared {
  std::shared_ptr<const distclk::Instance> inst;
  std::shared_ptr<const distclk::InstanceContext> ctx;  ///< untraced pass
  std::unique_ptr<distclk::CandidateLists> cand;        ///< traced pass
  std::vector<int> order;                               ///< traced pass
  std::vector<double> buildSeconds;  ///< per repeat
  std::vector<double> readySeconds;  ///< per repeat: build + tour check
  double kdtreeS = 0.0, candS = 0.0, constructS = 0.0;  ///< medians
  std::int64_t constructionLength = 0;

  const distclk::CandidateLists& candidates() const {
    return ctx ? ctx->candidates() : *cand;
  }
  const std::vector<int>& construction() const {
    return ctx ? ctx->constructionOrder() : order;
  }
};

Prepared prepare(std::shared_ptr<const distclk::Instance> inst, int threads,
                 int repeats, const Options& opt, Tracer* tr, Outcome& out);

}  // namespace e2e
