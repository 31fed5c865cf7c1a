// Generated queries and the answers the program gave to them.
#ifndef XPCBENCH_CORPUS_H_
#define XPCBENCH_CORPUS_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "checker.h"
#include "common.h"
#include "stages.h"
#include "xpc/core/session.h"
#include "xpc/fuzz/generator.h"

namespace xpcbench {

/// One query of a corpus.
struct Query {
  Claim::Kind kind = Claim::Kind::kNodeSat;
  xpc::NodePtr phi;    ///< kNodeSat.
  xpc::PathPtr alpha;  ///< kPathSat, kContains.
  xpc::PathPtr beta;   ///< kContains.
  /// Printed form(s), as a text client would submit them; for containment
  /// the two paths are joined by " ;; ".
  std::string Text() const;
};

/// A corpus stratum: which generator options draw it and how many of each
/// block of queries it fills.
struct Category {
  const char* name;
  Claim::Kind kind;
  xpc::ExprGenOptions gen;
  int weight;
};

/// Draws `n` distinct queries (by printed form) in blocks; every block holds
/// each category `weight` times, shuffled, so any prefix of the corpus keeps
/// the stated mix. Stops early if the fragments hold no new queries.
std::vector<Query> DrawCorpus(xpc::FuzzGen& gen, const std::vector<Category>& categories,
                              size_t n);

/// The first answer the program gave to a query.
struct Answer {
  bool seen = false;
  char code = '?';
  std::optional<xpc::XmlTree> witness;
  Route route = Route::kOther;
};

/// What a Session call returned.
struct Outcome {
  char code = '?';
  std::optional<xpc::XmlTree> witness;
  std::string engine;
  xpc::StatsSnapshot stats;
};

/// Submits `q` to `session`.
Outcome Submit(xpc::Session& session, const Query& q);

/// Submits `q` and fills in `op`'s latency, route and decidedness; a call
/// that throws marks `op` failed.
Outcome TimedSubmit(xpc::Session& session, const Query& q, OpRecord& op, RunResult& result);

/// Keeps the first answer to a query; a later different answer fails `op`.
void RecordAnswer(Answer& a, Outcome& out, OpRecord& op, RunResult& result);

/// Judges the answers in order up to the first query never answered,
/// records their codes as the "verdicts" digest section, and fails the ops
/// of every query judged wrong. With `inject`, one answer is corrupted
/// first (see InjectWrongVerdict).
void JudgeInOrder(std::vector<Answer>& answers, const std::function<Claim(size_t)>& claim_of,
                  bool inject, RunResult& result);

/// Replays `q` stage by stage (see stages.h) and returns the replay's code.
char Replay(const Query& q, const xpc::Edtd* edtd, const xpc::SolverOptions& options,
            Tracer& tracer, StageCounters& counters);

/// Counts one traced replay and compares its code with the Session's. When
/// both are decided and differ, the replay no longer takes the path the
/// program takes, so its stage times would describe the wrong path: the run
/// fails. With `inject`, the first decided replay code is flipped, so the
/// self-test can prove this check fails the run.
void CheckReplay(char replayed, char answered, bool inject, StageCounters& counters,
                 RunResult& result);

/// The checker's view of an answer.
Claim ToClaim(const Query& q, const xpc::Edtd* edtd, const Answer& a);

/// Flips the first negative answer (unsat / contained) into a positive one
/// whose witness is a one-node tree. The flipped answer is wrong whatever
/// the tree: no model exists. Returns the index flipped, or -1.
int64_t InjectWrongVerdict(std::vector<Answer>& answers);

}  // namespace xpcbench

#endif  // XPCBENCH_CORPUS_H_
