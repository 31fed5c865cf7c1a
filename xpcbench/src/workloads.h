// The four workloads and the per-layer metric assembly they share.
#ifndef XPCBENCH_WORKLOADS_H_
#define XPCBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "checker.h"
#include "common.h"
#include "stages.h"
#include "trace.h"
#include "xpc/common/stats.h"

namespace xpcbench {

/// cold_solve: distinct containment and satisfiability queries across the
/// Table I rows, each solved once by a fresh Session.
RunResult RunColdSolve(const Config& config, Tracer& tracer);
/// warm_session: a cache-resident pool submitted as text with Zipf-skewed
/// repeats, batches, fresh misses and periodic schema switches.
RunResult RunWarmSession(const Config& config, Tracer& tracer);
/// schema_solve: distinct queries under several generated 3-5-type EDTDs.
RunResult RunSchemaSolve(const Config& config, Tracer& tracer);
/// stream_route: a few thousand streamable queries compiled into one bundle,
/// conforming documents routed through StreamMatcher.
RunResult RunStreamRoute(const Config& config, Tracer& tracer);

/// Engine telemetry of the uncached solves of a run, read from the
/// `xpc::StatsSnapshot` each result carries.
struct EngineTally {
  xpc::StatsSnapshot merged;
  int64_t solves = 0;
  double arena_bytes = 0;  ///< Summed per-solve arena high-water marks.
  void Add(const xpc::StatsSnapshot& s);
};

/// Per-layer metrics every solving workload can report: stage self times
/// per operation, artifact sizes, engine counters, per-route latencies and
/// the trace residual.
void AddLayerMetrics(const Tracer& tracer, const StageCounters& counters,
                     const EngineTally& engines, const OpLog& ops,
                     RunResult& result);

/// Adds trace.overhead_ratio: the median op latency of the traced stretch
/// (`result.ops`) over that of the untraced stretch, minus one.
void AddTraceOverhead(const OpLog& untraced, RunResult& result);

/// Seconds since `start_ns`.
inline double SecondsSince(int64_t start_ns) { return (NowNs() - start_ns) / 1e9; }

}  // namespace xpcbench

#endif  // XPCBENCH_WORKLOADS_H_
