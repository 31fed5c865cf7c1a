// The independent verdict checker. It runs after the timed loop and judges
// every distinct answer the program gave:
//
//   * sat / not-contained: the attached witness or counterexample must exist,
//     must re-evaluate correctly under the reference evaluator
//     (xpc::Evaluator), and must conform to the schema when there is one;
//   * unsat / contained: exhaustive search over every small tree (every
//     small conforming tree under a schema) must find no model or
//     counterexample, and where the fragment has a second complete engine
//     (downward vs. loop-sat, fast path vs. fast_paths=false) that engine
//     must not decide the opposite;
//   * undecided answers are honest and are not judged.
#ifndef XPCBENCH_CHECKER_H_
#define XPCBENCH_CHECKER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "xpc/core/solver.h"
#include "xpc/edtd/edtd.h"
#include "xpc/tree/xml_tree.h"

namespace xpcbench {

/// One answer to judge.
struct Claim {
  enum class Kind { kNodeSat, kPathSat, kContains };
  Kind kind = Kind::kNodeSat;
  xpc::NodePtr phi;    ///< kNodeSat.
  xpc::PathPtr alpha;  ///< kPathSat, kContains.
  xpc::PathPtr beta;   ///< kContains.
  const xpc::Edtd* edtd = nullptr;
  char code = '?';     ///< See SatCode / ContainmentCode.
  std::optional<xpc::XmlTree> witness;
  Route route = Route::kOther;
};

class Checker {
 public:
  struct Counts {
    int64_t judged = 0;
    int64_t witnesses_reevaluated = 0;
    int64_t negatives_searched = 0;
    int64_t trees_searched = 0;
    int64_t second_engine_agreed = 0;
    int64_t second_engine_undecided = 0;
  };

  Checker() = default;
  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  /// "" when the answer holds up, otherwise what is wrong with it.
  std::string Judge(const Claim& claim);

  /// One line describing what was checked.
  std::string Summary() const;

 private:
  const std::vector<xpc::XmlTree>& SmallTrees(const std::vector<std::string>& labels);
  const std::vector<xpc::XmlTree>& ConformingSmallTrees(const xpc::Edtd& edtd);
  std::string JudgeNegative(const Claim& claim);
  std::string SecondEngine(const Claim& claim);

  std::map<std::string, std::vector<xpc::XmlTree>> small_trees_;
  std::map<const xpc::Edtd*, std::vector<xpc::XmlTree>> conforming_trees_;
  Counts counts_;
};

}  // namespace xpcbench

#endif  // XPCBENCH_CHECKER_H_
