#include "corpus.h"

#include <unordered_set>
#include <utility>

#include "xpc/xpath/printer.h"

namespace xpcbench {

std::string Query::Text() const {
  switch (kind) {
    case Claim::Kind::kNodeSat: return xpc::ToString(phi);
    case Claim::Kind::kPathSat: return xpc::ToString(alpha);
    case Claim::Kind::kContains: return xpc::ToString(alpha) + " ;; " + xpc::ToString(beta);
  }
  return "";
}

std::vector<Query> DrawCorpus(xpc::FuzzGen& gen, const std::vector<Category>& categories,
                              size_t n) {
  std::vector<int> block;
  for (size_t c = 0; c < categories.size(); ++c) {
    for (int k = 0; k < categories[c].weight; ++k) block.push_back(static_cast<int>(c));
  }
  std::vector<Query> corpus;
  std::unordered_set<std::string> seen;
  while (corpus.size() < n) {
    const size_t before = corpus.size();
    for (size_t i = block.size(); i > 1; --i) std::swap(block[i - 1], block[gen.NextBelow(i)]);
    for (int c : block) {
      if (corpus.size() >= n) break;
      const Category& cat = categories[c];
      // Small fragments repeat; redraw until the printed form is new.
      for (int attempt = 0; attempt < 64; ++attempt) {
        Query q;
        q.kind = cat.kind;
        switch (cat.kind) {
          case Claim::Kind::kNodeSat: q.phi = gen.GenNode(cat.gen); break;
          case Claim::Kind::kPathSat: q.alpha = gen.GenPath(cat.gen); break;
          case Claim::Kind::kContains:
            q.alpha = gen.GenPath(cat.gen);
            q.beta = gen.GenPath(cat.gen);
            break;
        }
        if (!seen.insert(q.Text()).second) continue;
        corpus.push_back(std::move(q));
        break;
      }
    }
    if (corpus.size() == before) break;  // The fragments hold no new queries.
  }
  return corpus;
}

Outcome Submit(xpc::Session& session, const Query& q) {
  Outcome out;
  if (q.kind == Claim::Kind::kContains) {
    xpc::ContainmentResult r = session.Contains(q.alpha, q.beta);
    out.code = ContainmentCode(r.verdict);
    out.witness = std::move(r.counterexample);
    out.engine = std::move(r.engine);
    out.stats = r.stats;
    return out;
  }
  xpc::SatResult r = q.kind == Claim::Kind::kNodeSat ? session.NodeSatisfiable(q.phi)
                                                     : session.PathSatisfiable(q.alpha);
  out.code = SatCode(r.status);
  out.witness = std::move(r.witness);
  out.engine = std::move(r.engine);
  out.stats = r.stats;
  return out;
}

Outcome TimedSubmit(xpc::Session& session, const Query& q, OpRecord& op, RunResult& result) {
  Outcome out;
  const int64_t t0 = NowNs();
  try {
    out = Submit(session, q);
  } catch (const std::exception& e) {
    op.failed = true;
    result.Fail("query " + std::to_string(op.key) + " threw: " + e.what());
  }
  op.latency_ns = NowNs() - t0;
  op.route = RouteOfEngine(out.engine);
  op.decided = Decided(out.code);
  return out;
}

void RecordAnswer(Answer& a, Outcome& out, OpRecord& op, RunResult& result) {
  if (op.failed) return;
  if (!a.seen) {
    a.seen = true;
    a.code = out.code;
    a.witness = std::move(out.witness);
    a.route = RouteOfEngine(out.engine);
  } else if (a.code != out.code) {
    op.failed = true;
    result.Fail("query " + std::to_string(op.key) + " answered " + a.code + " then " + out.code);
  }
}

void JudgeInOrder(std::vector<Answer>& answers, const std::function<Claim(size_t)>& claim_of,
                  bool inject, RunResult& result) {
  if (inject) InjectWrongVerdict(answers);
  Checker checker;
  std::vector<char> wrong(answers.size(), 0);
  std::string digest;
  for (size_t i = 0; i < answers.size() && answers[i].seen; ++i) {
    digest += answers[i].code;
    const std::string error = checker.Judge(claim_of(i));
    if (error.empty()) continue;
    wrong[i] = 1;
    result.Fail(error);
  }
  result.digest["verdicts"] = digest;
  result.ops.FailKeys(wrong);
  result.settings.push_back(checker.Summary());
}

char Replay(const Query& q, const xpc::Edtd* edtd, const xpc::SolverOptions& options,
            Tracer& tracer, StageCounters& counters) {
  switch (q.kind) {
    case Claim::Kind::kNodeSat: return ReplayNodeSat(q.phi, edtd, options, tracer, counters);
    case Claim::Kind::kPathSat: return ReplayPathSat(q.alpha, edtd, options, tracer, counters);
    case Claim::Kind::kContains:
      return ReplayContains(q.alpha, q.beta, edtd, options, tracer, counters);
  }
  return '?';
}

void CheckReplay(char replayed, char answered, bool inject, StageCounters& counters,
                 RunResult& result) {
  ++counters.replays;
  if (inject && !counters.injected && Decided(answered)) {
    counters.injected = true;
    switch (answered) {
      case 'S': replayed = 'U'; break;
      case 'U': replayed = 'S'; break;
      case 'C': replayed = 'N'; break;
      default: replayed = 'C'; break;
    }
  }
  if (replayed == answered) return;
  ++counters.replay_mismatches;
  if (Decided(replayed) && Decided(answered)) {
    result.Fail(std::string("traced replay answered ") + replayed + ", the Session " + answered +
                ": the staged replay no longer mirrors the dispatch");
  }
}

Claim ToClaim(const Query& q, const xpc::Edtd* edtd, const Answer& a) {
  Claim c;
  c.kind = q.kind;
  c.phi = q.phi;
  c.alpha = q.alpha;
  c.beta = q.beta;
  c.edtd = edtd;
  c.code = a.code;
  c.witness = a.witness;
  c.route = a.route;
  return c;
}

int64_t InjectWrongVerdict(std::vector<Answer>& answers) {
  for (size_t i = 0; i < answers.size(); ++i) {
    Answer& a = answers[i];
    if (!a.seen || (a.code != 'U' && a.code != 'C')) continue;
    a.code = a.code == 'U' ? 'S' : 'N';
    a.witness = xpc::XmlTree("injected");
    return static_cast<int64_t>(i);
  }
  return -1;
}

}  // namespace xpcbench
