// E15 — online sessions: memo repair vs full re-solve over
// deterministic churn traces (Poisson and bursty on/off).
//
// Thin wrapper over the shared perf harness (src/perf): runs the
// registered "e15_session" case; all flags of perf::bench_main apply
// (--json, --timing, --baseline, ... — see docs/benchmarking.md).
#include "perf/cli.hpp"

int main(int argc, char** argv) {
  return msrs::perf::bench_main(argc, argv, "e15_session");
}
