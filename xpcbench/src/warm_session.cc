// warm_session: a pool that fits the verdict cache, submitted as text with
// Zipf-skewed repeats. Parse, intern and the Session's cache lookup and
// batch dedupe do most of the work; the engines do little. Fresh queries
// (misses that insert and evict) and periodic schema switches (which clear
// the verdict caches) are the writes beside the reads, so a lookup gain that
// costs inserts or re-solves shows.
#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_set>

#include "corpus.h"
#include "workloads.h"
#include "xpc/schemaindex/schema_index.h"
#include "xpc/xpath/parser.h"
#include "xpc/xpath/printer.h"

namespace xpcbench {

namespace {

constexpr size_t kPool = 1500;
constexpr size_t kFresh = 6000;
constexpr size_t kCacheCapacity = 4096;
// A mild skew: the median operation then spans many distinct queries, not
// the two or three at the head, so it does not hinge on which ones a seed
// puts there.
constexpr double kZipfS = 0.7;
constexpr int kBatch = 16;
constexpr int kBatchThreads = 4;
// Shares of loop steps, per 2^20.
constexpr uint64_t kFreshPer2p20 = 1049;   // ~0.1% fresh misses
constexpr uint64_t kBatchPer2p20 = 52429;  // ~5% batch calls
constexpr int64_t kSwitchEvery = 600000;   // steps between schema switches
constexpr int kSetupReps = 9;

// Queries stay downward and free of general `*` so that, under both
// schemas, a re-solve after a switch is a downward-engine or fast-path call,
// never the encoded route (over a second per query).
std::vector<Category> PoolCategories(const std::vector<std::string>& labels, int max_ops) {
  using G = xpc::ExprGenOptions;
  using K = Claim::Kind;
  auto make = [&](G g) {
    g.max_ops = max_ops;
    g.labels = labels;
    return g;
  };
  G chains = G::Streamable();
  chains.allow_star = false;
  return {
      {"contains CoreXPath_down(&)", K::kContains, make(G::DownwardIntersect()), 10},
      {"psat downward label-filter", K::kPathSat, make(chains), 4},
      {"sat CoreXPath_down(&)", K::kNodeSat, make(G::DownwardIntersect()), 6},
  };
}

// A query as the client holds it: text only.
struct TextQuery {
  Claim::Kind kind;
  std::string a;
  std::string b;
};

TextQuery ToText(const Query& q) {
  switch (q.kind) {
    case Claim::Kind::kNodeSat: return {q.kind, xpc::ToString(q.phi), ""};
    case Claim::Kind::kPathSat: return {q.kind, xpc::ToString(q.alpha), ""};
    case Claim::Kind::kContains: return {q.kind, xpc::ToString(q.alpha), xpc::ToString(q.beta)};
  }
  return {};
}

// Parses a text query; the texts were printed by the library's printer, so
// a parse failure is a program defect (reported by the caller).
bool Parse(const TextQuery& t, Query* q) {
  q->kind = t.kind;
  if (t.kind == Claim::Kind::kNodeSat) {
    auto phi = xpc::ParseNode(t.a);
    if (!phi.ok()) return false;
    q->phi = std::move(phi).value();
    return true;
  }
  auto alpha = xpc::ParsePath(t.a);
  if (!alpha.ok()) return false;
  q->alpha = std::move(alpha).value();
  if (t.kind == Claim::Kind::kContains) {
    auto beta = xpc::ParsePath(t.b);
    if (!beta.ok()) return false;
    q->beta = std::move(beta).value();
  }
  return true;
}

Query InternQuery(xpc::Session& s, const Query& q) {
  Query c = q;
  if (c.phi) c.phi = s.Intern(c.phi);
  if (c.alpha) c.alpha = s.Intern(c.alpha);
  if (c.beta) c.beta = s.Intern(c.beta);
  return c;
}

// Draws from a Zipf(s) distribution over ranks 0..n-1.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Draw(uint64_t uniform64) const;

 private:
  std::vector<double> cdf_;
};

ZipfSampler::ZipfSampler(size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& x : cdf_) x /= sum;
}

size_t ZipfSampler::Draw(uint64_t uniform64) const {
  const double u = static_cast<double>(uniform64 >> 11) * 0x1.0p-53;
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? cdf_.size() - 1 : static_cast<size_t>(it - cdf_.begin());
}

}  // namespace

RunResult RunWarmSession(const Config& cfg, Tracer& tracer) {
  RunResult result;
  xpc::SessionOptions options;
  options.solver = BenchSolverOptions();
  options.verdict_cache_capacity = kCacheCapacity;
  options.batch_threads = kBatchThreads;
  options.schema_index.build_threads = 1;

  xpc::FuzzGen gen(GeneratorSeed(cfg.seed, 0x3A53));
  const std::vector<std::string> labels = {"a", "b", "c"};
  xpc::EdtdGenOptions eo;
  eo.num_types = 4;
  eo.concrete_labels = labels;
  eo.linear_content = true;
  const xpc::Edtd schema_a = gen.GenEdtd(eo);
  eo.linear_content = false;
  const xpc::Edtd schema_b = gen.GenEdtd(eo);
  const xpc::Edtd* schemas[2] = {&schema_a, &schema_b};

  const size_t pool_n = std::max<size_t>(40, static_cast<size_t>(kPool * cfg.scale));
  const size_t fresh_n = std::max<size_t>(20, static_cast<size_t>(kFresh * cfg.scale));
  std::vector<Query> pool = DrawCorpus(gen, PoolCategories(labels, 5), pool_n);
  std::vector<Query> fresh;
  {
    // Fresh queries are small and must not collide with the pool.
    std::unordered_set<std::string> taken;
    for (const Query& q : pool) taken.insert(q.Text());
    for (Query& q : DrawCorpus(gen, PoolCategories(labels, 3), fresh_n + pool_n)) {
      if (fresh.size() < fresh_n && taken.insert(q.Text()).second) fresh.push_back(std::move(q));
    }
  }
  std::vector<TextQuery> pool_text;
  std::vector<size_t> contains_idx;
  for (size_t i = 0; i < pool.size(); ++i) {
    pool_text.push_back(ToText(pool[i]));
    if (pool[i].kind == Claim::Kind::kContains) contains_idx.push_back(i);
  }
  std::vector<TextQuery> fresh_text;
  for (const Query& q : fresh) fresh_text.push_back(ToText(q));
  const ZipfSampler zipf(pool.size(), kZipfS);
  const ZipfSampler zipf_contains(contains_idx.size(), kZipfS);

  result.settings.push_back(
      "pool: " + std::to_string(pool.size()) + " queries as text (10/20 containment, 4/20 path " +
      "sat, 6/20 node sat; downward, 5 ops), Zipf s=0.7, verdict cache " +
      std::to_string(kCacheCapacity) + ", one caller");
  result.settings.push_back("mix: ~5% of steps are ContainsBatch of " + std::to_string(kBatch) +
                            " Zipf draws (" + std::to_string(kBatchThreads) +
                            " batch threads), ~0.1% fresh 3-op queries (" +
                            std::to_string(fresh.size()) + " drawn), SetEdtd switch every " +
                            std::to_string(kSwitchEvery) + " steps between two 4-type schemas");
  result.settings.push_back("limits: " + DescribeLimits(options.solver));

  // Set-up: Session construction, both schemas attached (cold SchemaIndex
  // builds), and warm-up parse + intern of the pool.
  std::unique_ptr<xpc::Session> session;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    xpc::SchemaIndex::ClearRegistry();
    session.reset();
    const bool traced_setup = cfg.trace && rep == kSetupReps - 1;
    tracer.set_enabled(traced_setup);
    tracer.BeginQuery(-1);
    const int64_t t0 = NowNs();
    {
      Tracer::Scope s(tracer, "setup.session");
      session = std::make_unique<xpc::Session>(options);
    }
    for (const xpc::Edtd* e : {schemas[1], schemas[0]}) {
      Tracer::Scope s(tracer, "core.set_edtd");
      session->SetEdtd(*e);
    }
    {
      Tracer::Scope s(tracer, "setup.intern");
      for (const TextQuery& t : pool_text) {
        Query q;
        if (!Parse(t, &q)) {
          result.Fail("cannot parse printed query: " + t.a + " " + t.b);
          continue;
        }
        InternQuery(*session, q);
      }
    }
    result.setup_seconds.push_back(SecondsSince(t0));
    if (traced_setup) {
      // The index build on its own (not registered, so the Session's copy is
      // untouched).
      for (const xpc::Edtd* e : schemas) {
        Tracer::Scope s(tracer, "schemaindex.build");
        xpc::SchemaIndex::Build(*e, options.schema_index);
      }
    }
    tracer.EndQuery(Route::kOther, 0);
  }
  result.settings.push_back("set-up: Session + SetEdtd x2 (cold index builds) + parse/intern of "
                            "the pool, median of " + std::to_string(kSetupReps));

  // Answers are keyed by (query, schema): pool entries first, then fresh.
  const size_t n_keys = 2 * (pool.size() + fresh.size());
  auto pool_key = [&](size_t i, int s) { return static_cast<int32_t>(2 * i + s); };
  auto fresh_key = [&](size_t i, int s) {
    return static_cast<int32_t>(2 * (pool.size() + i) + s);
  };
  auto query_of = [&](int32_t key) -> const Query& {
    const size_t i = static_cast<size_t>(key) / 2;
    return i < pool.size() ? pool[i] : fresh[i - pool.size()];
  };
  std::vector<Answer> answers(n_keys);
  int cur = 0;  // Index of the attached schema; SetEdtd(A) ran last.

  // Keys the traced replay believes are cached: it replays the solve
  // stages for a batch element only when its key is not.
  std::vector<char> cached(n_keys, 0);

  // Untimed warm-up pass: every pool query once under schema A.
  for (size_t i = 0; i < pool.size(); ++i) {
    Outcome out = Submit(*session, pool[i]);
    OpRecord op;
    op.key = pool_key(i, cur);
    RecordAnswer(answers[op.key], out, op, result);
    cached[op.key] = 1;
  }
  session->ResetStats();

  StageCounters counters;
  EngineTally engines;
  int64_t replay_lookups_contains = 0;
  int64_t replay_lookups_sat = 0;

  // Every stretch replays the same step sequence.
  auto stretch = [&](double seconds, bool traced, OpLog& ops) {
    tracer.set_enabled(traced);
    uint64_t rng = cfg.seed ^ 0x5EED5EEDULL;
    size_t next_fresh = 0;
    const int64_t start = NowNs();
    double paused = 0;
    for (int64_t step = 0; SecondsSince(start) < seconds; ++step) {
      if (step > 0 && step % kSwitchEvery == 0) {
        cur ^= 1;
        tracer.BeginQuery(-1);
        {
          Tracer::Scope s(tracer, "core.set_edtd");
          session->SetEdtd(*schemas[cur]);
        }
        tracer.EndQuery(Route::kOther, 0);
        std::fill(cached.begin(), cached.end(), 0);
      }
      const uint64_t u = SplitMix(rng) >> 44;  // 20 bits
      if (u >= kFreshPer2p20 && u < kFreshPer2p20 + kBatchPer2p20) {
        // A batch of containment queries, with in-batch duplicates.
        std::vector<size_t> picks(kBatch);
        for (size_t& p : picks) p = contains_idx[zipf_contains.Draw(SplitMix(rng))];
        const xpc::SessionStats before = session->stats();
        tracer.BeginQuery(step);
        const int op_span = traced ? tracer.Open("op") : -1;
        const int64_t t0 = NowNs();
        std::vector<std::pair<xpc::PathPtr, xpc::PathPtr>> batch;
        batch.reserve(kBatch);
        bool parsed = true;
        for (size_t p : picks) {
          Query q;
          parsed = Parse(pool_text[p], &q) && parsed;
          batch.emplace_back(q.alpha, q.beta);
        }
        std::vector<xpc::ContainmentResult> rs;
        bool threw = false;
        try {
          if (parsed) rs = session->ContainsBatch(batch);
        } catch (const std::exception& e) {
          threw = true;
          result.Fail(std::string("ContainsBatch threw: ") + e.what());
        }
        const int64_t latency = NowNs() - t0;
        if (!parsed) result.Fail("cannot parse a printed pool query");
        // Session counters, read outside the timed call, tell hits from misses.
        const bool any_miss = session->stats().containment.misses > before.containment.misses;
        if (traced) {
          const int64_t p0 = NowNs();
          tracer.Close(op_span);
          {
            Tracer::Scope stages(tracer, "stages");
            for (size_t k = 0; k < picks.size() && !rs.empty(); ++k) {
              Query q;
              {
                Tracer::Scope s(tracer, "xpath.parse");
                Parse(pool_text[picks[k]], &q);
              }
              Query c;
              {
                Tracer::Scope s(tracer, "xpath.intern");
                c = InternQuery(*session, q);
              }
              {
                Tracer::Scope s(tracer, "core.lookup");
                Submit(*session, c);
              }
              ++replay_lookups_contains;
              const int32_t key = pool_key(picks[k], cur);
              if (!cached[key]) {
                cached[key] = 1;
                CheckReplay(Replay(q, schemas[cur], options.solver, tracer, counters),
                            ContainmentCode(rs[k].verdict), cfg.inject_replay_mismatch,
                            counters, result);
                engines.Add(rs[k].stats);
              }
            }
          }
          tracer.EndQuery(any_miss ? Route::kOther : Route::kCacheHit, kBatch);
          paused += SecondsSince(p0);
        }
        for (size_t k = 0; k < picks.size(); ++k) {
          OpRecord op;
          op.latency_ns = latency / kBatch;
          op.key = pool_key(picks[k], cur);
          op.route = any_miss ? Route::kOther : Route::kCacheHit;
          op.failed = threw || !parsed;
          if (!rs.empty()) {
            Outcome out;
            out.code = ContainmentCode(rs[k].verdict);
            out.witness = rs[k].counterexample;
            out.engine = rs[k].engine;
            op.decided = Decided(out.code);
            RecordAnswer(answers[op.key], out, op, result);
          }
          ops.Add(op);
        }
        continue;
      }
      // A single call: a fresh query or a Zipf draw from the pool.
      const bool is_fresh = u < kFreshPer2p20;
      const size_t idx = is_fresh ? (next_fresh++ % fresh.size()) : zipf.Draw(SplitMix(rng));
      const TextQuery& text = is_fresh ? fresh_text[idx] : pool_text[idx];
      OpRecord op;
      op.key = is_fresh ? fresh_key(idx, cur) : pool_key(idx, cur);
      const xpc::SessionStats before = session->stats();
      tracer.BeginQuery(step);
      const int op_span = traced ? tracer.Open("op") : -1;
      Outcome out;
      const int64_t t0 = NowNs();
      Query q;
      const bool parsed = Parse(text, &q);
      try {
        if (parsed) out = Submit(*session, q);
      } catch (const std::exception& e) {
        op.failed = true;
        result.Fail(std::string("Session call threw: ") + e.what());
      }
      op.latency_ns = NowNs() - t0;
      if (!parsed) {
        op.failed = true;
        result.Fail("cannot parse printed query: " + text.a + " " + text.b);
      }
      op.decided = Decided(out.code);
      const xpc::SessionStats after = session->stats();
      const bool miss = after.containment.misses + after.sat.misses >
                        before.containment.misses + before.sat.misses;
      op.route = miss ? RouteOfEngine(out.engine) : Route::kCacheHit;
      if (traced) {
        const int64_t p0 = NowNs();
        tracer.Close(op_span);
        {
          Tracer::Scope stages(tracer, "stages");
          Query q2;
          {
            Tracer::Scope s(tracer, "xpath.parse");
            Parse(text, &q2);
          }
          Query c;
          {
            Tracer::Scope s(tracer, "xpath.intern");
            c = InternQuery(*session, q2);
          }
          {
            Tracer::Scope s(tracer, "core.lookup");
            Submit(*session, c);
          }
          (q.kind == Claim::Kind::kContains ? replay_lookups_contains : replay_lookups_sat)++;
          if (miss) {
            CheckReplay(Replay(q2, schemas[cur], options.solver, tracer, counters), out.code,
                        cfg.inject_replay_mismatch, counters, result);
            engines.Add(out.stats);
          }
        }
        cached[op.key] = 1;
        tracer.EndQuery(op.route);
        paused += SecondsSince(p0);
      }
      if (parsed) RecordAnswer(answers[op.key], out, op, result);
      ops.Add(op);
    }
    return SecondsSince(start) - paused;
  };

  if (cfg.trace) {
    OpLog untraced;
    stretch(cfg.seconds * 0.25, false, untraced);
    session->ResetStats();
    result.timed_seconds = stretch(cfg.seconds * 0.75, true, result.ops);
    AddLayerMetrics(tracer, counters, engines, result.ops, result);
    AddTraceOverhead(untraced, result);
    // Session cache behaviour of the traced stretch, without the replay's
    // own lookups (all hits).
    const xpc::SessionStats s = session->stats();
    const double c_hits = static_cast<double>(s.containment.hits - replay_lookups_contains);
    const double s_hits = static_cast<double>(s.sat.hits - replay_lookups_sat);
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const int64_t c_total = s.containment.hits - replay_lookups_contains + s.containment.misses;
    const int64_t s_total = s.sat.hits - replay_lookups_sat + s.sat.misses;
    result.per_layer.push_back(
        {"core.containment_hit_ratio", ratio(c_hits, c_total), "ratio", c_total});
    result.per_layer.push_back({"core.sat_hit_ratio", ratio(s_hits, s_total), "ratio", s_total});
    result.per_layer.push_back({"core.evictions",
                                static_cast<double>(s.containment.evictions + s.sat.evictions),
                                "count", 1});
    result.per_layer.push_back({"core.invalidations", static_cast<double>(s.invalidations),
                                "count", 1});
    result.per_layer.push_back({"core.batch_dedup_ratio",
                                ratio(s.batch_deduped, s.batch_queries), "ratio",
                                s.batch_queries});
  } else {
    result.timed_seconds = stretch(cfg.seconds, false, result.ops);
  }

  result.peak_rss_mb = PeakRssMb();

  // Judge each key's first answer; repeats were compared on the fly.
  if (cfg.inject_wrong_verdict) InjectWrongVerdict(answers);
  Checker checker;
  std::vector<char> wrong(n_keys, 0);
  for (size_t key = 0; key < n_keys; ++key) {
    if (!answers[key].seen) continue;
    const std::string error =
        checker.Judge(ToClaim(query_of(static_cast<int32_t>(key)), schemas[key % 2], answers[key]));
    if (error.empty()) continue;
    wrong[key] = 1;
    result.Fail(error);
  }
  for (int s = 0; s < 2; ++s) {
    std::string codes;
    for (size_t i = 0; i < pool.size(); ++i) {
      const Answer& a = answers[pool_key(i, s)];
      codes += a.seen ? a.code : '?';
    }
    result.digest[s == 0 ? "schema_a" : "schema_b"] = codes;
  }
  result.ops.FailKeys(wrong);
  result.settings.push_back(checker.Summary());
  return result;
}

}  // namespace xpcbench
