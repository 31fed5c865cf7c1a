// schema_solve: distinct queries under several generated EDTDs, half of
// them duplicate- and disjunction-free (`linear_content`), the class real
// DTDs mostly fall in. The SchemaIndex, the downward engine's native EDTD
// support, the schema fast paths and the Prop. 6 encoding into loop-sat do
// the work; non-downward queries under a schema take the encoded route,
// whose cost per loop item sets the tail.
#include <memory>

#include "corpus.h"
#include "workloads.h"
#include "xpc/schemaindex/schema_index.h"

namespace xpcbench {

namespace {

constexpr int kSchemas = 64;
constexpr size_t kQueries = 6000;
constexpr int kSetupReps = 15;
// The encoded route costs ~0.7 ms and ~69 KB of arena per loop item under a
// 3-type schema and several times that under 5 types, so its cap is far below
// the schema-free one.
constexpr int64_t kEncodedLoopItems = 20;

std::vector<Category> SchemaCategories(const std::vector<std::string>& labels) {
  using G = xpc::ExprGenOptions;
  using K = Claim::Kind;
  auto make = [&](G g, int max_ops) {
    g.max_ops = max_ops;
    g.labels = labels;
    return g;
  };
  return {
      {"sat CoreXPath_down(&)", K::kNodeSat, make(G::DownwardIntersect(), 6), 6},
      {"sat positive vertical/chain", K::kNodeSat, make(G::VerticalConjunctive(), 6), 4},
      {"contains CoreXPath_down(&)", K::kContains, make(G::DownwardIntersect(), 4), 4},
      {"psat streamable", K::kPathSat, make(G::Streamable(), 5), 2},
      {"sat CoreXPath(*,~)", K::kNodeSat, make(G::RegularFriendly(), 4), 4},
  };
}

}  // namespace

RunResult RunSchemaSolve(const Config& cfg, Tracer& tracer) {
  RunResult result;
  xpc::SessionOptions options;
  options.solver = BenchSolverOptions();
  options.solver.loop.max_items = kEncodedLoopItems;
  options.solver.loop.max_pool = kEncodedLoopItems;
  options.batch_threads = 1;
  options.schema_index.build_threads = 1;

  xpc::FuzzGen gen(GeneratorSeed(cfg.seed, 0x5C4E));
  const std::vector<std::string> labels = {"a", "b", "c"};
  std::vector<xpc::Edtd> schemas;
  for (int s = 0; s < kSchemas; ++s) {
    xpc::EdtdGenOptions eo;
    eo.num_types = 3 + s % 3;
    eo.concrete_labels = labels;
    eo.linear_content = s % 2 == 0;
    schemas.push_back(gen.GenEdtd(eo));
  }
  size_t per_schema = std::max<size_t>(10, static_cast<size_t>(kQueries * cfg.scale) / kSchemas);
  const std::vector<Category> categories = SchemaCategories(labels);
  std::vector<std::vector<Query>> queries;
  for (int s = 0; s < kSchemas; ++s) {
    queries.push_back(DrawCorpus(gen, categories, per_schema));
    per_schema = std::min(per_schema, queries.back().size());
  }
  // Op i submits query i / kSchemas under schema i % kSchemas.
  const size_t n = per_schema * kSchemas;
  auto query_of = [&](size_t i) -> const Query& { return queries[i % kSchemas][i / kSchemas]; };

  result.settings.push_back("corpus: " + std::to_string(kSchemas) + " generated EDTDs (3-5 " +
                            "types, even ones linear_content), " + std::to_string(per_schema) +
                            " distinct queries each, one Session per schema, one caller");
  std::string mix = "mix per 20:";
  for (const Category& c : categories) mix += " " + std::to_string(c.weight) + "x " + c.name + ";";
  result.settings.push_back(mix);
  result.settings.push_back("limits: " + DescribeLimits(options.solver));

  // Set-up: a Session per schema with its EDTD attached (cold index build).
  std::vector<std::unique_ptr<xpc::Session>> sessions;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    xpc::SchemaIndex::ClearRegistry();
    sessions.clear();
    const bool traced_setup = cfg.trace && rep == kSetupReps - 1;
    tracer.set_enabled(traced_setup);
    tracer.BeginQuery(-1);
    const int64_t t0 = NowNs();
    for (const xpc::Edtd& e : schemas) {
      {
        Tracer::Scope s(tracer, "setup.session");
        sessions.push_back(std::make_unique<xpc::Session>(options));
      }
      Tracer::Scope s(tracer, "core.set_edtd");
      sessions.back()->SetEdtd(e);
    }
    result.setup_seconds.push_back(SecondsSince(t0));
    if (traced_setup) {
      for (const xpc::Edtd& e : schemas) {
        Tracer::Scope s(tracer, "schemaindex.build");
        xpc::SchemaIndex::Build(e, options.schema_index);
      }
    }
    tracer.EndQuery(Route::kOther, 0);
  }
  result.settings.push_back("set-up: " + std::to_string(kSchemas) +
                            " x (Session + SetEdtd, cold index build), median of " +
                            std::to_string(kSetupReps));

  std::vector<Answer> answers(n);
  StageCounters counters;
  EngineTally engines;

  auto stretch = [&](double seconds, bool traced, OpLog& ops) {
    tracer.set_enabled(traced);
    const int64_t start = NowNs();
    double paused = 0;
    for (size_t i = 0; i < n && SecondsSince(start) < seconds; ++i) {
      xpc::Session& session = *sessions[i % kSchemas];
      const xpc::Edtd& schema = schemas[i % kSchemas];
      const Query& q = query_of(i);
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
            if (q.phi) session.Intern(q.phi);
            if (q.alpha) session.Intern(q.alpha);
            if (q.beta) session.Intern(q.beta);
          }
          CheckReplay(Replay(q, &schema, options.solver, tracer, counters), out.code,
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
    OpLog untraced;
    stretch(cfg.seconds * 0.25, false, untraced);
    // Fresh sessions, so the traced stretch solves the same queries cold.
    tracer.set_enabled(false);
    for (int s = 0; s < kSchemas; ++s) {
      sessions[s] = std::make_unique<xpc::Session>(options);
      sessions[s]->SetEdtd(schemas[s]);
    }
    result.timed_seconds = stretch(cfg.seconds * 0.75, true, result.ops);
    AddLayerMetrics(tracer, counters, engines, result.ops, result);
    AddTraceOverhead(untraced, result);
  } else {
    result.timed_seconds = stretch(cfg.seconds, false, result.ops);
  }
  result.peak_rss_mb = PeakRssMb();

  JudgeInOrder(
      answers, [&](size_t i) { return ToClaim(query_of(i), &schemas[i % kSchemas], answers[i]); },
      cfg.inject_wrong_verdict, result);
  return result;
}

}  // namespace xpcbench
