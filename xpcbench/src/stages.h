// The staged replay of the traced run: one query solved again through the
// public functions of each module, in the order `xpc::Solver` dispatches
// them, with a span around every stage. The replay's answer is compared with
// the Session's: a decided answer that differs fails the run (CheckReplay),
// so a replay that no longer mirrors the dispatch cannot report stage times
// of a path the program does not take; undecided differences show up in
// `trace.replay_mismatch_ratio`.
#ifndef XPCBENCH_STAGES_H_
#define XPCBENCH_STAGES_H_

#include <cstdint>

#include "trace.h"
#include "xpc/core/solver.h"

namespace xpcbench {

/// Sizes of the intermediate artifacts the stages built.
struct StageCounters {
  int64_t reduction_calls = 0;
  int64_t reduction_out_nodes = 0;  ///< AST nodes of the reduced formula.
  int64_t encode_calls = 0;
  double encode_growth = 0;         ///< Summed out/in AST-node ratios.
  int64_t normal_form_calls = 0;
  int64_t normal_form_size = 0;     ///< Summed SizeOf of ToLoopNormalForm output.
  int64_t product_calls = 0;
  int64_t dag_size = 0;             ///< Summed DagSizeOf of the product output.
  int64_t replays = 0;
  int64_t replay_mismatches = 0;
  bool injected = false;  ///< A replay code was flipped (--inject-replay-mismatch).
};

/// Node satisfiability, replayed. Returns the answer code (see SatCode).
char ReplayNodeSat(const xpc::NodePtr& phi, const xpc::Edtd* edtd,
                   const xpc::SolverOptions& options, Tracer& tracer, StageCounters& counters);

/// Path satisfiability (Prop. 4 reduction to node satisfiability), replayed.
char ReplayPathSat(const xpc::PathPtr& alpha, const xpc::Edtd* edtd,
                   const xpc::SolverOptions& options, Tracer& tracer, StageCounters& counters);

/// Containment (Prop. 4 reduction to unsatisfiability), replayed. Returns the
/// answer code (see ContainmentCode).
char ReplayContains(const xpc::PathPtr& alpha, const xpc::PathPtr& beta, const xpc::Edtd* edtd,
                    const xpc::SolverOptions& options, Tracer& tracer, StageCounters& counters);

}  // namespace xpcbench

#endif  // XPCBENCH_STAGES_H_
