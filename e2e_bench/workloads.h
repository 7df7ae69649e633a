// The benchmark's workloads. Each runs one pass over its inputs and checks
// every output; a non-null tracer selects the traced pass, which records
// spans around the library calls and fills the per-layer metrics.
#pragma once

#include <string_view>

#include "bench_common.h"

namespace e2e {

Outcome runClkDrill(const Options& opt, Tracer* tr);
Outcome runDistDrill(const Options& opt, Tracer* tr);
Outcome runServeMix(const Options& opt, Tracer* tr);
Outcome runPrepMega(const Options& opt, Tracer* tr);

using WorkloadFn = Outcome (*)(const Options&, Tracer*);

struct Workload {
  const char* name;
  WorkloadFn run;
};

inline constexpr Workload kWorkloads[] = {
    {"clk_drill", runClkDrill},
    {"dist_drill", runDistDrill},
    {"serve_mix", runServeMix},
    {"prep_mega", runPrepMega},
};

/// --calibrate: reruns the workload with its exact pins unenforced and
/// prints every figure pins.json holds for it; with referenceSeconds > 0 it
/// also runs the long reference search for the workload's instances.
int calibrate(const Workload& w, Options opt, double referenceSeconds);

}  // namespace e2e
