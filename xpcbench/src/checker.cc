#include "checker.h"

#include <algorithm>
#include <set>

#include "xpc/edtd/conformance.h"
#include "xpc/eval/evaluator.h"
#include "xpc/pathauto/normal_form.h"
#include "xpc/reduction/reductions.h"
#include "xpc/sat/downward_sat.h"
#include "xpc/sat/loop_sat.h"
#include "xpc/translate/intersect_product.h"
#include "xpc/tree/tree_text.h"
#include "xpc/xpath/fragment.h"
#include "xpc/xpath/metrics.h"
#include "xpc/xpath/printer.h"

namespace xpcbench {

namespace {

// Small-tree search budgets: every tree up to 4 nodes over the query's
// labels plus a fresh one while that stays within 800 trees (4 nodes over 3
// labels, 3 nodes over 4-8 labels), and up to 5 nodes when filtering for
// schema conformance (the schemas use 3 concrete labels).
constexpr int kMaxFreeNodes = 4;
constexpr size_t kMaxFreeTrees = 800;
constexpr int kMaxSchemaNodes = 5;
constexpr size_t kMaxSchemaTrees = 4000;
// Loop-sat cap of the second engine: about 13 ms at most, so confirming every
// negative answer costs a fraction of the timed loop. Harder cases come back
// undecided and are counted as such.
constexpr int64_t kSecondLoopItems = 100;

// Preorder parent arrays of every ordered tree shape with `n` nodes: node i
// hangs below some node on the rightmost path of nodes 0..i-1.
void Shapes(int n, std::vector<int>& parent, std::vector<int>& rightmost,
            std::vector<std::vector<int>>& out) {
  if (static_cast<int>(parent.size()) == n) {
    out.push_back(parent);
    return;
  }
  const int id = static_cast<int>(parent.size());
  for (size_t k = 0; k < rightmost.size(); ++k) {
    std::vector<int> next(rightmost.begin(), rightmost.begin() + k + 1);
    next.push_back(id);
    parent.push_back(rightmost[k]);
    Shapes(n, parent, next, out);
    parent.pop_back();
  }
}

std::string Describe(const Claim& c) {
  switch (c.kind) {
    case Claim::Kind::kNodeSat: return "sat(" + xpc::ToString(c.phi) + ")";
    case Claim::Kind::kPathSat: return "psat(" + xpc::ToString(c.alpha) + ")";
    case Claim::Kind::kContains:
      return xpc::ToString(c.alpha) + " <= " + xpc::ToString(c.beta);
  }
  return "?";
}

// Does `tree` refute a negative answer (i.e. is it a model / counterexample)?
bool Refutes(const Claim& c, const xpc::XmlTree& tree) {
  xpc::Evaluator ev(tree);
  switch (c.kind) {
    case Claim::Kind::kNodeSat: return ev.SatisfiedSomewhere(c.phi);
    case Claim::Kind::kPathSat: return !ev.EvalPath(c.alpha).Empty();
    case Claim::Kind::kContains: return !ev.ContainedIn(c.alpha, c.beta);
  }
  return false;
}

std::vector<std::string> QueryLabels(const Claim& c) {
  std::set<std::string> labels;
  switch (c.kind) {
    case Claim::Kind::kNodeSat: labels = xpc::Labels(c.phi); break;
    case Claim::Kind::kPathSat: labels = xpc::Labels(c.alpha); break;
    case Claim::Kind::kContains: {
      labels = xpc::Labels(c.alpha);
      std::set<std::string> b = xpc::Labels(c.beta);
      labels.insert(b.begin(), b.end());
      break;
    }
  }
  labels.insert(xpc::FreshLabel(labels, "zz"));
  return {labels.begin(), labels.end()};
}

char Code(const Claim& c, const xpc::SatResult& r) {
  // The claim's question as satisfiability: a model means "not contained".
  if (c.kind != Claim::Kind::kContains) return SatCode(r.status);
  switch (r.status) {
    case xpc::SolveStatus::kSat: return 'N';
    case xpc::SolveStatus::kUnsat: return 'C';
    case xpc::SolveStatus::kResourceLimit: return '?';
  }
  return '?';
}

// Every ordered tree with at most `max_nodes` nodes labelled from `labels`,
// smallest first, stopping before the total would exceed `max_trees`.
std::vector<xpc::XmlTree> EnumerateSmallTrees(const std::vector<std::string>& labels,
                                              int max_nodes, size_t max_trees) {
  std::vector<xpc::XmlTree> trees;
  const size_t l = labels.size();
  for (int n = 1; n <= max_nodes; ++n) {
    std::vector<std::vector<int>> shapes;
    std::vector<int> parent = {-1};
    std::vector<int> rightmost = {0};
    Shapes(n, parent, rightmost, shapes);
    size_t labellings = 1;
    for (int i = 0; i < n; ++i) labellings *= l;
    if (trees.size() + shapes.size() * labellings > max_trees) break;
    std::vector<size_t> digit(n, 0);
    for (size_t k = 0; k < labellings; ++k) {
      size_t rest = k;
      for (int i = 0; i < n; ++i) {
        digit[i] = rest % l;
        rest /= l;
      }
      for (const std::vector<int>& shape : shapes) {
        xpc::XmlTree tree(labels[digit[0]]);
        for (int i = 1; i < n; ++i) tree.AddChild(shape[i], labels[digit[i]]);
        trees.push_back(std::move(tree));
      }
    }
  }
  return trees;
}

}  // namespace

const std::vector<xpc::XmlTree>& Checker::SmallTrees(const std::vector<std::string>& labels) {
  std::string key;
  for (const std::string& l : labels) key += l + "\n";
  auto it = small_trees_.find(key);
  if (it == small_trees_.end()) {
    it = small_trees_.emplace(key, EnumerateSmallTrees(labels, kMaxFreeNodes, kMaxFreeTrees)).first;
  }
  return it->second;
}

const std::vector<xpc::XmlTree>& Checker::ConformingSmallTrees(const xpc::Edtd& edtd) {
  auto it = conforming_trees_.find(&edtd);
  if (it == conforming_trees_.end()) {
    std::vector<xpc::XmlTree> conforming;
    for (xpc::XmlTree& t :
         EnumerateSmallTrees(edtd.ConcreteLabels(), kMaxSchemaNodes, kMaxSchemaTrees)) {
      if (xpc::Conforms(t, edtd)) conforming.push_back(std::move(t));
    }
    it = conforming_trees_.emplace(&edtd, std::move(conforming)).first;
  }
  return it->second;
}

std::string Checker::Judge(const Claim& c) {
  if (!Decided(c.code)) return "";
  ++counts_.judged;
  const bool positive = c.code == 'S' || c.code == 'N';
  if (!positive) return JudgeNegative(c);
  if (!c.witness.has_value()) return Describe(c) + ": answered " + c.code + " without a witness";
  ++counts_.witnesses_reevaluated;
  if (!Refutes(c, *c.witness)) {
    return Describe(c) + ": witness " + xpc::TreeToText(*c.witness) +
           " fails re-evaluation under the reference evaluator";
  }
  if (c.edtd != nullptr && !xpc::Conforms(*c.witness, *c.edtd)) {
    return Describe(c) + ": witness " + xpc::TreeToText(*c.witness) +
           " does not conform to the schema";
  }
  return "";
}

std::string Checker::Summary() const {
  const Counts& k = counts_;
  return "checker: " + std::to_string(k.judged) + " decided answers judged, " +
         std::to_string(k.witnesses_reevaluated) + " witnesses re-evaluated, " +
         std::to_string(k.negatives_searched) + " negatives searched over " +
         std::to_string(k.trees_searched) + " small trees, second engine agreed " +
         std::to_string(k.second_engine_agreed) + " / undecided " +
         std::to_string(k.second_engine_undecided);
}

std::string Checker::JudgeNegative(const Claim& c) {
  ++counts_.negatives_searched;
  const std::vector<xpc::XmlTree>& trees =
      c.edtd != nullptr ? ConformingSmallTrees(*c.edtd) : SmallTrees(QueryLabels(c));
  counts_.trees_searched += static_cast<int64_t>(trees.size());
  for (const xpc::XmlTree& t : trees) {
    if (Refutes(c, t)) {
      return Describe(c) + ": answered " + c.code + " but the tree " + xpc::TreeToText(t) +
             " refutes it";
    }
  }
  return SecondEngine(c);
}

std::string Checker::SecondEngine(const Claim& c) {
  xpc::SatResult other;
  std::string name;
  if (c.route == Route::kFastpath) {
    // Under a schema, fast_paths=false sends a non-downward query to the
    // encoded route, which rarely decides within any affordable cap; only
    // the downward engine is a usable second engine there.
    if (c.edtd != nullptr) {
      xpc::Fragment f = c.kind == Claim::Kind::kNodeSat ? xpc::DetectFragment(c.phi)
                                                        : xpc::DetectFragment(c.alpha);
      if (c.kind == Claim::Kind::kContains) {
        f = xpc::Fragment::Join(f, xpc::DetectFragment(c.beta));
      }
      if (!f.IsDownward() || f.uses_star) return "";
    }
    xpc::SolverOptions so = BenchSolverOptions();
    so.fast_paths = false;
    so.loop.max_items = kSecondLoopItems;
    so.loop.max_pool = kSecondLoopItems;
    xpc::Solver solver(so);
    name = "fast_paths=false";
    if (c.kind == Claim::Kind::kContains) {
      xpc::ContainmentResult r = c.edtd != nullptr ? solver.Contains(c.alpha, c.beta, *c.edtd)
                                                   : solver.Contains(c.alpha, c.beta);
      other.status = r.verdict == xpc::ContainmentVerdict::kContained ? xpc::SolveStatus::kUnsat
                     : r.verdict == xpc::ContainmentVerdict::kNotContained
                         ? xpc::SolveStatus::kSat
                         : xpc::SolveStatus::kResourceLimit;
    } else {
      xpc::NodePtr phi =
          c.kind == Claim::Kind::kNodeSat ? c.phi : xpc::PathSatToNodeSat(c.alpha);
      other = c.edtd != nullptr ? solver.NodeSatisfiable(phi, *c.edtd)
                                : solver.NodeSatisfiable(phi);
    }
  } else if (c.edtd == nullptr) {
    xpc::NodePtr psi = c.kind == Claim::Kind::kNodeSat  ? c.phi
                       : c.kind == Claim::Kind::kPathSat ? xpc::PathSatToNodeSat(c.alpha)
                                                         : xpc::ContainmentToUnsat(c.alpha, c.beta);
    xpc::Fragment f = xpc::DetectFragment(psi);
    if (!f.IsDownward() || f.uses_star || f.uses_complement || f.uses_for) return "";
    if (c.route == Route::kDownward) {
      name = "loop-sat";
      xpc::LExprPtr e = xpc::IntersectToLoopNormalForm(psi);
      if (!e) return "";
      xpc::LoopSatOptions lo;
      lo.max_items = kSecondLoopItems;
      lo.max_pool = kSecondLoopItems;
      lo.want_witness = false;
      other = xpc::LoopSatisfiable(e, lo);
    } else {
      name = "downward-sat";
      xpc::DownwardSatOptions d = BenchSolverOptions().downward;
      d.max_summaries = 100000;
      d.want_witness = false;
      other = xpc::DownwardSatisfiable(psi, d);
    }
  } else {
    return "";
  }
  const char code = Code(c, other);
  if (!Decided(code)) {
    ++counts_.second_engine_undecided;
    return "";
  }
  if (code != c.code) {
    return Describe(c) + ": answered " + c.code + " but " + name + " answers " + code;
  }
  ++counts_.second_engine_agreed;
  return "";
}

}  // namespace xpcbench
