// cold_solve: distinct queries, each solved once by a fresh Session. The
// engines, translations and witness verification do nearly all the work;
// parse, intern and cache do nearly none, so engine gains show here.
#include <memory>

#include "corpus.h"
#include "workloads.h"
#include "xpc/xpath/interner.h"

namespace xpcbench {

namespace {

// The Table I rows, as generator fragments. Satisfiability of positive
// vertical and chain queries takes the PTIME fast paths; containment always
// reaches a full engine (its reduction introduces negation). The weights are
// assumptions (no published query mix was found; see README.md). They put about
// a quarter of the queries on loop-sat, which then takes most of the time
// and sets the tail, and over half on the downward engine, so the median
// sits inside one route's bulk instead of on the boundary between two
// routes, where it would swing with each seed's route proportions.
std::vector<Category> ColdCategories() {
  using G = xpc::ExprGenOptions;
  using K = Claim::Kind;
  auto ops = [](G g, int max_ops) {
    g.max_ops = max_ops;
    return g;
  };
  G minus_for = G::DownwardComplement();
  minus_for.allow_for = true;
  return {
      {"sat CoreXPath(*,~)", K::kNodeSat, ops(G::RegularFriendly(), 7), 1},
      {"sat CoreXPath(*,&)", K::kNodeSat, ops(G::WithIntersect(), 7), 1},
      {"sat CoreXPath_down(&)", K::kNodeSat, ops(G::DownwardIntersect(), 8), 4},
      {"sat positive vertical/chain", K::kNodeSat, ops(G::VerticalConjunctive(), 8), 2},
      {"contains CoreXPath(*,~)", K::kContains, ops(G::RegularFriendly(), 6), 2},
      {"contains CoreXPath(*,&)", K::kContains, ops(G::WithIntersect(), 5), 1},
      {"contains CoreXPath_down(&)", K::kContains, ops(G::DownwardIntersect(), 6), 7},
      {"contains positive vertical", K::kContains, ops(G::VerticalConjunctive(), 5), 1},
      {"contains CoreXPath_down(-,for)", K::kContains, ops(minus_for, 5), 1},
  };
}

// Fresh Sessions are built a pool at a time, outside the timed calls.
constexpr size_t kSessionPool = 2048;
constexpr int kSetupReps = 15;

void InternAll(xpc::ExprInterner& interner, const Query& q) {
  if (q.phi) interner.Intern(q.phi);
  if (q.alpha) interner.Intern(q.alpha);
  if (q.beta) interner.Intern(q.beta);
}

}  // namespace

RunResult RunColdSolve(const Config& cfg, Tracer& tracer) {
  RunResult result;
  xpc::SessionOptions options;
  options.solver = BenchSolverOptions();
  options.batch_threads = 1;

  const std::vector<Category> categories = ColdCategories();
  const size_t n = std::max<size_t>(60, static_cast<size_t>(20000 * cfg.scale));
  xpc::FuzzGen gen(GeneratorSeed(cfg.seed, 0xC01D));
  const std::vector<Query> corpus = DrawCorpus(gen, categories, n);
  result.settings.push_back("corpus: " + std::to_string(corpus.size()) +
                            " distinct queries, one fresh Session each, one caller");
  std::string mix = "mix per 20:";
  for (const Category& c : categories) mix += " " + std::to_string(c.weight) + "x " + c.name + ";";
  result.settings.push_back(mix);
  result.settings.push_back("limits: " + DescribeLimits(options.solver));

  // Set-up: constructing the fresh Sessions, one pool per sample.
  std::vector<std::unique_ptr<xpc::Session>> pool;
  auto refill = [&] {
    pool.clear();
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < kSessionPool; ++i) {
      pool.push_back(std::make_unique<xpc::Session>(options));
    }
    return SecondsSince(t0);
  };
  for (int rep = 0; rep < kSetupReps; ++rep) result.setup_seconds.push_back(refill());
  result.settings.push_back("set-up: construct " + std::to_string(kSessionPool) +
                            " Sessions, median of " + std::to_string(kSetupReps));

  std::vector<Answer> answers(corpus.size());
  StageCounters counters;
  EngineTally engines;

  // One stretch of the timed loop over the corpus prefix. Returns the
  // seconds spent in the loop outside untimed pauses (pool refills, the
  // traced replay).
  auto stretch = [&](double seconds, bool traced, OpLog& ops) {
    tracer.set_enabled(traced);
    const int64_t start = NowNs();
    double paused = 0;
    size_t next = kSessionPool;
    for (size_t i = 0; i < corpus.size() && SecondsSince(start) < seconds; ++i) {
      if (next == kSessionPool) {
        const int64_t p0 = NowNs();
        refill();
        next = 0;
        paused += SecondsSince(p0);
      }
      xpc::Session& session = *pool[next++];
      const Query& q = corpus[i];
      tracer.BeginQuery(static_cast<int64_t>(i));
      const int op_span = traced ? tracer.Open("op") : -1;
      OpRecord op;
      op.key = static_cast<int32_t>(i);
      Outcome out = TimedSubmit(session, q, op, result);
      if (traced) {
        const int64_t p0 = NowNs();
        tracer.Close(op_span);
        {
          Tracer::Scope stages(tracer, "stages");
          {
            Tracer::Scope s(tracer, "xpath.intern");
            xpc::ExprInterner interner;
            InternAll(interner, q);
          }
          CheckReplay(Replay(q, nullptr, options.solver, tracer, counters), out.code,
                      cfg.inject_replay_mismatch, counters, result);
        }
        tracer.EndQuery(op.route);
        engines.Add(out.stats);
        paused += SecondsSince(p0);
      }
      RecordAnswer(answers[i], out, op, result);
      ops.Add(op);
    }
    return SecondsSince(start) - paused;
  };

  if (cfg.trace) {
    // An untraced stretch first, then the same queries traced: the ratio of
    // their Session-call times is the tracing overhead.
    OpLog untraced;
    stretch(cfg.seconds * 0.25, false, untraced);
    result.timed_seconds = stretch(cfg.seconds * 0.75, true, result.ops);
    AddLayerMetrics(tracer, counters, engines, result.ops, result);
    AddTraceOverhead(untraced, result);
  } else {
    result.timed_seconds = stretch(cfg.seconds, false, result.ops);
  }

  result.peak_rss_mb = PeakRssMb();

  // Check every answer outside the timed loop.
  JudgeInOrder(
      answers, [&](size_t i) { return ToClaim(corpus[i], nullptr, answers[i]); },
      cfg.inject_wrong_verdict, result);
  return result;
}

}  // namespace xpcbench
