#include "workloads.h"

namespace xpcbench {

using xpc::Metric;

void EngineTally::Add(const xpc::StatsSnapshot& s) {
  merged.MergeFrom(s);
  ++solves;
  arena_bytes += static_cast<double>(s.value(Metric::kArenaBytesReserved));
}

namespace {

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Per-operation stage self times, keyed by metric name.
constexpr std::pair<const char*, const char*> kStageMetrics[] = {
    {"xpath.parse_us", "xpath.parse"},
    {"xpath.intern_us", "xpath.intern"},
    {"core.lookup_us", "core.lookup"},
    {"classify.profile_us", "classify.profile"},
    {"reduction.us", "reduction"},
    {"edtd.encode_us", "edtd.encode"},
    {"pathauto.normal_form_us", "pathauto.normal_form"},
    {"translate.intersect_product_us", "translate.intersect_product"},
    {"sat.loop_us", "sat.loop"},
    {"sat.downward_us", "sat.downward"},
    {"sat.fastpath_us", "sat.fastpath"},
    {"sat.bounded_us", "sat.bounded"},
    {"eval.verify_us", "eval.verify"},
};

// Set-up spans, reported as mean microseconds per call.
constexpr std::pair<const char*, const char*> kSetupMetrics[] = {
    {"schemaindex.build_us", "schemaindex.build"},
    {"stream.optimize_us", "stream.optimize"},
    {"stream.compile_us", "stream.compile"},
};

}  // namespace

void AddLayerMetrics(const Tracer& tracer, const StageCounters& c, const EngineTally& e,
                     const OpLog& ops, RunResult& result) {
  auto add = [&](const std::string& name, double value, const char* unit, int64_t samples) {
    result.per_layer.push_back({name, value, unit, samples});
  };
  const double n_ops = static_cast<double>(tracer.ops());
  for (const auto& [metric, span] : kStageMetrics) {
    auto it = tracer.totals().find(span);
    const double ns = it == tracer.totals().end() ? 0 : it->second.self_ns;
    add(metric, Ratio(ns, n_ops) / 1000.0, "us", tracer.ops());
  }
  for (const auto& [metric, span] : kSetupMetrics) {
    auto it = tracer.setup_totals().find(span);
    if (it == tracer.setup_totals().end()) continue;
    add(metric, Ratio(it->second.self_ns, it->second.count) / 1000.0, "us", it->second.count);
  }

  add("reduction.out_nodes", Ratio(c.reduction_out_nodes, c.reduction_calls), "nodes",
      c.reduction_calls);
  add("edtd.encode_growth", Ratio(c.encode_growth, c.encode_calls), "x", c.encode_calls);
  add("pathauto.normal_form_size", Ratio(c.normal_form_size, c.normal_form_calls), "nodes",
      c.normal_form_calls);
  add("translate.dag_size", Ratio(c.dag_size, c.product_calls), "nodes", c.product_calls);

  const xpc::StatsSnapshot& m = e.merged;
  const double fp_hits = m.value(Metric::kClassifyFastpathHits);
  const double fp_total = fp_hits + m.value(Metric::kClassifyFastpathFallbacks);
  add("classify.fastpath_hit_ratio", Ratio(fp_hits, fp_total), "ratio",
      static_cast<int64_t>(fp_total));
  const double loop_calls = m.timer_calls(Metric::kSatLoop);
  add("sat.loop_items", Ratio(m.value(Metric::kSatLoopItems), loop_calls), "count",
      static_cast<int64_t>(loop_calls));
  add("sat.statrel_interned", Ratio(m.value(Metric::kStatRelInterned), loop_calls), "count",
      static_cast<int64_t>(loop_calls));
  const double down_calls = m.timer_calls(Metric::kSatDownward);
  add("sat.downward_summaries", Ratio(m.value(Metric::kSatDownwardSummaries), down_calls),
      "count", static_cast<int64_t>(down_calls));
  const double bounded_calls = m.timer_calls(Metric::kSatBounded);
  add("sat.bounded_trees", Ratio(m.value(Metric::kSatBoundedTrees), bounded_calls), "count",
      static_cast<int64_t>(bounded_calls));
  add("common.arena_bytes_per_query", Ratio(e.arena_bytes, e.solves), "bytes", e.solves);
  const double si_hits = m.value(Metric::kSchemaIndexHits);
  const double si_total = si_hits + m.value(Metric::kSchemaIndexColdMisses);
  add("schemaindex.registry_hit_ratio", Ratio(si_hits, si_total), "ratio",
      static_cast<int64_t>(si_total));

  // Per-route latency, and how often loop-sat stopped at its caps.
  add("sat.loop_capped_ratio", Ratio(ops.loop_capped(), ops.loop_ops()), "ratio", ops.loop_ops());
  for (Route r : {Route::kFastpath, Route::kDownward, Route::kLoop, Route::kLoopEdtd,
                  Route::kBounded, Route::kCacheHit}) {
    const LatencyHistogram& h = ops.route(r);
    const std::string base = std::string("route.") + RouteName(r);
    add(base + ".p50_ms", h.QuantileMs(0.5), "ms", h.count());
    add(base + ".p99_ms", h.QuantileMs(TailQuantileLevel(h.count())), "ms", h.count());
    add(base + ".count", static_cast<double>(h.count()), "count", h.count());
  }

  auto total = [&](const char* name) {
    auto it = tracer.totals().find(name);
    return it == tracer.totals().end() ? 0.0 : it->second.self_ns;
  };
  add("trace.residual_ratio", Ratio(total("residual"), total("op")), "ratio", tracer.ops());
  add("trace.replay_mismatch_ratio", Ratio(c.replay_mismatches, c.replays), "ratio", c.replays);
}

void AddTraceOverhead(const OpLog& untraced, RunResult& result) {
  const double base = untraced.all().QuantileMs(0.5);
  const double traced = result.ops.all().QuantileMs(0.5);
  result.per_layer.push_back(
      {"trace.overhead_ratio", base == 0 ? 0 : traced / base - 1.0, "ratio", result.ops.count()});
}

}  // namespace xpcbench
