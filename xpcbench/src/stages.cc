#include "stages.h"

#include <optional>

#include "xpc/classify/fastpath.h"
#include "xpc/classify/profile.h"
#include "xpc/edtd/conformance.h"
#include "xpc/edtd/encode.h"
#include "xpc/eval/evaluator.h"
#include "xpc/pathauto/normal_form.h"
#include "xpc/reduction/reductions.h"
#include "xpc/sat/bounded_sat.h"
#include "xpc/sat/downward_sat.h"
#include "xpc/sat/loop_sat.h"
#include "xpc/translate/intersect_product.h"
#include "xpc/xpath/metrics.h"

namespace xpcbench {

using xpc::SatResult;
using xpc::SolveStatus;

namespace {

// Mirrors xpc::Solver::DispatchImpl with fast paths on.
SatResult ReplayDispatch(const xpc::NodePtr& phi, const xpc::Edtd* edtd,
                         const xpc::SolverOptions& o, Tracer& t, StageCounters& c) {
  xpc::Fragment f;
  xpc::FastPathRoute route;
  {
    Tracer::Scope s(t, "classify.profile");
    xpc::FragmentProfile profile = xpc::ClassifyNode(phi);
    f = profile.fragment;
    if (edtd != nullptr) {
      xpc::SchemaClass schema = xpc::ClassifySchema(*edtd);
      route = xpc::SelectFastPath(profile, &schema);
    } else {
      route = xpc::SelectFastPath(profile, nullptr);
    }
  }
  if (route == xpc::FastPathRoute::kDownwardChain) {
    Tracer::Scope s(t, "sat.fastpath");
    return xpc::DownwardChainSatisfiable(phi, edtd);
  }
  if (route == xpc::FastPathRoute::kVerticalConjunctive) {
    Tracer::Scope s(t, "sat.fastpath");
    return xpc::VerticalConjunctiveSatisfiable(phi, edtd);
  }
  if (f.uses_complement || f.uses_for) {
    Tracer::Scope s(t, "sat.bounded");
    if (edtd == nullptr) return xpc::BoundedSatisfiable(phi, o.bounded);
    SatResult result;
    result.engine = "bounded-sat+edtd";
    const xpc::BoundedSatOptions& b = o.bounded;
    for (int i = 0; i < b.random_trees * (b.max_random_nodes + 1); ++i) {
      auto [ok, tree] = xpc::SampleConformingTree(*edtd, b.max_random_nodes, b.seed + i);
      if (!ok) continue;
      if (xpc::Evaluator(tree).SatisfiedSomewhere(phi)) {
        result.status = SolveStatus::kSat;
        result.witness = std::move(tree);
        return result;
      }
    }
    result.status = SolveStatus::kResourceLimit;
    return result;
  }
  if (o.prefer_downward_engine && f.IsDownward() && !f.uses_star) {
    SatResult r;
    {
      Tracer::Scope s(t, "sat.downward");
      r = edtd != nullptr ? xpc::DownwardSatisfiableWithEdtd(phi, *edtd, o.downward)
                          : xpc::DownwardSatisfiable(phi, o.downward);
    }
    if (r.status != SolveStatus::kResourceLimit) return r;
  }
  xpc::NodePtr target = phi;
  if (edtd != nullptr) {
    {
      Tracer::Scope s(t, "edtd.encode");
      target = xpc::EncodeEdtdSatisfiability(phi, *edtd);
    }
    ++c.encode_calls;
    c.encode_growth += static_cast<double>(xpc::Size(target)) / xpc::Size(phi);
  }
  xpc::LExprPtr e;
  if (f.uses_intersect) {
    {
      Tracer::Scope s(t, "translate.intersect_product");
      e = xpc::IntersectToLoopNormalForm(target);
    }
    if (e) {
      ++c.product_calls;
      c.dag_size += xpc::DagSizeOf(e);
    }
  } else {
    {
      Tracer::Scope s(t, "pathauto.normal_form");
      e = xpc::ToLoopNormalForm(target);
    }
    if (e) {
      ++c.normal_form_calls;
      c.normal_form_size += xpc::SizeOf(e);
    }
  }
  if (!e) {
    SatResult r;
    r.engine = "dispatch:no-translation";
    return r;
  }
  SatResult r;
  {
    Tracer::Scope s(t, "sat.loop");
    r = xpc::LoopSatisfiable(e, o.loop);
  }
  if (edtd != nullptr) {
    r.engine += "+edtd-encoding";
    if (r.status == SolveStatus::kSat && r.witness.has_value()) {
      Tracer::Scope s(t, "edtd.encode");
      r.witness = xpc::StripWitnessLabels(*r.witness, *edtd);
    }
  }
  return r;
}

}  // namespace

char ReplayNodeSat(const xpc::NodePtr& phi, const xpc::Edtd* edtd,
                   const xpc::SolverOptions& options, Tracer& tracer, StageCounters& counters) {
  SatResult r = ReplayDispatch(phi, edtd, options, tracer, counters);
  if (options.verify_witnesses && r.status == SolveStatus::kSat && r.witness.has_value()) {
    Tracer::Scope s(tracer, "eval.verify");
    if (!xpc::Evaluator(*r.witness).SatisfiedSomewhere(phi)) r.status = SolveStatus::kResourceLimit;
  }
  return SatCode(r.status);
}

char ReplayPathSat(const xpc::PathPtr& alpha, const xpc::Edtd* edtd,
                   const xpc::SolverOptions& options, Tracer& tracer, StageCounters& counters) {
  xpc::NodePtr phi;
  {
    Tracer::Scope s(tracer, "reduction");
    phi = xpc::PathSatToNodeSat(alpha);
  }
  ++counters.reduction_calls;
  counters.reduction_out_nodes += xpc::Size(phi);
  return ReplayNodeSat(phi, edtd, options, tracer, counters);
}

char ReplayContains(const xpc::PathPtr& alpha, const xpc::PathPtr& beta, const xpc::Edtd* edtd,
                    const xpc::SolverOptions& options, Tracer& tracer, StageCounters& counters) {
  xpc::NodePtr psi;
  std::optional<xpc::Edtd> decorated;
  {
    Tracer::Scope s(tracer, "reduction");
    if (edtd != nullptr) {
      auto [p, d] = xpc::ContainmentToUnsatWithEdtd(alpha, beta, *edtd);
      psi = std::move(p);
      decorated.emplace(std::move(d));
    } else {
      psi = xpc::ContainmentToUnsat(alpha, beta);
    }
  }
  ++counters.reduction_calls;
  counters.reduction_out_nodes += xpc::Size(psi);
  SatResult r = ReplayDispatch(psi, decorated ? &*decorated : nullptr, options, tracer, counters);
  switch (r.status) {
    case SolveStatus::kUnsat: return 'C';
    case SolveStatus::kResourceLimit: return '?';
    case SolveStatus::kSat: break;
  }
  if (!r.witness.has_value()) return 'N';
  xpc::XmlTree counterexample = [&] {
    Tracer::Scope s(tracer, "reduction");
    return xpc::StripDecoration(*r.witness, decorated ? decorated->root_type() : "");
  }();
  if (options.verify_witnesses) {
    Tracer::Scope s(tracer, "eval.verify");
    if (xpc::Evaluator(counterexample).ContainedIn(alpha, beta)) return '?';
  }
  return 'N';
}

}  // namespace xpcbench
