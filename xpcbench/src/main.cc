// xpcbench: the xpc benchmark binary.
//
//   xpcbench --workload <cold_solve|warm_session|schema_solve|stream_route>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--scale <f>] [--digest-file <path>] [--write-digest <path>]
//            [--trace-dir <dir>] [--inject-wrong-verdict] [--inject-replay-mismatch]
//
// Prints the workload's settings and metrics as a table, then, as the last
// line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run). Exits 1 when any check fails, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "workloads.h"

namespace xpcbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match "end_to_end" in BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"queries_per_s", "1/s"}, {"query_p50_ms", "ms"},
    {"query_p99_ms", "ms"},    {"decided_ratio", "ratio"}, {"peak_rss_mb", "MB"},
};

// Must match "per_layer" in BENCHMARK.json. A layer a workload does not use
// reports 0.
constexpr MetricSpec kPerLayer[] = {
    {"xpath.parse_us", "us"},
    {"xpath.intern_us", "us"},
    {"core.lookup_us", "us"},
    {"core.containment_hit_ratio", "ratio"},
    {"core.sat_hit_ratio", "ratio"},
    {"core.evictions", "count"},
    {"core.invalidations", "count"},
    {"core.batch_dedup_ratio", "ratio"},
    {"classify.profile_us", "us"},
    {"classify.fastpath_hit_ratio", "ratio"},
    {"reduction.us", "us"},
    {"reduction.out_nodes", "nodes"},
    {"edtd.encode_us", "us"},
    {"edtd.encode_growth", "x"},
    {"pathauto.normal_form_us", "us"},
    {"pathauto.normal_form_size", "nodes"},
    {"translate.intersect_product_us", "us"},
    {"translate.dag_size", "nodes"},
    {"sat.loop_us", "us"},
    {"sat.loop_items", "count"},
    {"sat.statrel_interned", "count"},
    {"sat.loop_capped_ratio", "ratio"},
    {"common.arena_bytes_per_query", "bytes"},
    {"sat.downward_us", "us"},
    {"sat.downward_summaries", "count"},
    {"sat.fastpath_us", "us"},
    {"sat.bounded_us", "us"},
    {"sat.bounded_trees", "count"},
    {"eval.verify_us", "us"},
    {"schemaindex.build_us", "us"},
    {"schemaindex.registry_hit_ratio", "ratio"},
    {"stream.optimize_us", "us"},
    {"stream.compile_us", "us"},
    {"stream.step_ns_per_event", "ns"},
    {"stream.dfa_states", "count"},
    {"stream.dfa_misses", "count"},
    {"stream.deliveries_per_event", "count"},
    {"stream.events_per_s", "1/s"},
    {"stream.deliveries_per_s", "1/s"},
    {"route.fastpath.p50_ms", "ms"},
    {"route.fastpath.p99_ms", "ms"},
    {"route.fastpath.count", "count"},
    {"route.downward.p50_ms", "ms"},
    {"route.downward.p99_ms", "ms"},
    {"route.downward.count", "count"},
    {"route.loop.p50_ms", "ms"},
    {"route.loop.p99_ms", "ms"},
    {"route.loop.count", "count"},
    {"route.loop_edtd.p50_ms", "ms"},
    {"route.loop_edtd.p99_ms", "ms"},
    {"route.loop_edtd.count", "count"},
    {"route.bounded.p50_ms", "ms"},
    {"route.bounded.p99_ms", "ms"},
    {"route.bounded.count", "count"},
    {"route.cache_hit.p50_ms", "ms"},
    {"route.cache_hit.p99_ms", "ms"},
    {"route.cache_hit.count", "count"},
    {"trace.residual_ratio", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.replay_mismatch_ratio", "ratio"},
};

const std::map<std::string, std::function<RunResult(const Config&, Tracer&)>>& Workloads() {
  static const std::map<std::string, std::function<RunResult(const Config&, Tracer&)>> w = {
      {"cold_solve", RunColdSolve},
      {"warm_session", RunWarmSession},
      {"schema_solve", RunSchemaSolve},
      {"stream_route", RunStreamRoute},
  };
  return w;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "xpcbench: %s\nusage: xpcbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--scale <f>] [--digest-file <path>] [--write-digest <path>] "
               "[--trace-dir <dir>] [--inject-wrong-verdict] [--inject-replay-mismatch]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Config* cfg) {
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-wrong-verdict") {
      cfg->inject_wrong_verdict = true;
      continue;
    }
    if (flag == "--inject-replay-mismatch") {
      cfg->inject_replay_mismatch = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      cfg->workload = value;
    } else if (flag == "--seed") {
      cfg->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
    } else if (flag == "--seconds") {
      cfg->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(cfg->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      cfg->trace = value == "1";
    } else if (flag == "--scale") {
      cfg->scale = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(cfg->scale > 0)) return false;
    } else if (flag == "--digest-file") {
      cfg->digest_file = value;
    } else if (flag == "--write-digest") {
      cfg->write_digest = value;
    } else if (flag == "--trace-dir") {
      cfg->trace_dir = value;
    } else {
      return false;
    }
    seen.insert(flag);
  }
  return seen.count("--workload") && seen.count("--seed") && seen.count("--seconds") &&
         seen.count("--trace");
}

// Compares this run's digest sections with the stored ones: a decided
// answer that differs from a decided stored answer is drift. Returns the
// number of drifted entries and reports the first few through `result`.
// The file's first line is "seed <n>"; a digest for another seed is not
// compared.
int64_t CompareDigest(const std::string& workload, uint64_t seed, const std::string& file,
                      RunResult& result) {
  std::ifstream in(file);
  if (!in) {
    result.Fail("cannot read verdict digest " + file);
    return 1;
  }
  std::string line;
  std::string word;
  uint64_t stored_seed = 0;
  if (!std::getline(in, line) || !(std::istringstream(line) >> word >> stored_seed) ||
      word != "seed") {
    result.Fail("verdict digest " + file + " does not start with a seed line");
    return 1;
  }
  if (stored_seed != seed) return 0;
  int64_t drift = 0;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    std::string stored;
    fields >> key >> stored;
    if (key.rfind(workload + "/", 0) != 0) continue;
    auto it = result.digest.find(key.substr(workload.size() + 1));
    if (it == result.digest.end()) continue;
    const std::string& now = it->second;
    if (stored.find(',') != std::string::npos || now.find(',') != std::string::npos) {
      // Numeric sections: comma-separated counts, compared exactly.
      std::istringstream a(stored);
      std::istringstream b(now);
      std::string x;
      std::string y;
      for (int64_t i = 0; std::getline(a, x, ',') && std::getline(b, y, ','); ++i) {
        if (x == y) continue;
        ++drift;
        result.Fail(key + "[" + std::to_string(i) + "]: stored " + x + ", now " + y);
      }
      continue;
    }
    const size_t n = std::min(stored.size(), now.size());
    for (size_t i = 0; i < n; ++i) {
      if (!Decided(stored[i]) || !Decided(now[i]) || stored[i] == now[i]) continue;
      ++drift;
      result.Fail(key + "[" + std::to_string(i) + "]: stored verdict " + stored[i] + ", now " +
                  now[i]);
    }
  }
  return drift;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

// Per-route "where the time goes" for the traced run, as JSON for the report
// script and as a table on standard output.
void ReportStages(const Config& cfg, const Tracer& tracer) {
  std::string json = "{\"workload\":\"" + cfg.workload + "\",\"seed\":" +
                     std::to_string(cfg.seed) + ",\"routes\":{";
  bool first_route = true;
  std::printf("\nwhere the time goes (self time per op, ms; residual = op - stages):\n");
  for (int r = 0; r < kNumRoutes; ++r) {
    const int64_t ops = tracer.route_ops(static_cast<Route>(r));
    if (ops == 0) continue;
    const auto& totals = tracer.route_totals()[r];
    auto ms = [&](const char* name) {
      auto it = totals.find(name);
      return it == totals.end() ? 0.0 : it->second.self_ns / 1e6;
    };
    const double op_ms = ms("op");
    std::printf("  route %-10s ops=%lld op=%.4f ms/op\n", RouteName(static_cast<Route>(r)),
                static_cast<long long>(ops), op_ms / ops);
    json += std::string(first_route ? "" : ",") + "\"" + RouteName(static_cast<Route>(r)) +
            "\":{\"ops\":" + std::to_string(ops) + ",\"op_ms\":" + Num(op_ms) + ",\"stages\":{";
    first_route = false;
    bool first_stage = true;
    for (const auto& [name, agg] : totals) {
      if (name == "op" || name == "stages" || name == "residual") continue;
      std::printf("    %-32s %10.4f ms/op  %5.1f%%\n", name.c_str(), agg.self_ns / 1e6 / ops,
                  op_ms > 0 ? 100.0 * agg.self_ns / 1e6 / op_ms : 0.0);
      json += std::string(first_stage ? "" : ",") + "\"" + name + "\":" + Num(agg.self_ns / 1e6);
      first_stage = false;
    }
    std::printf("    %-32s %10.4f ms/op  %5.1f%%\n", "residual", ms("residual") / ops,
                op_ms > 0 ? 100.0 * ms("residual") / op_ms : 0.0);
    json += "},\"residual_ms\":" + Num(ms("residual")) + "}";
  }
  json += "},\"setup\":{";
  bool first = true;
  for (const auto& [name, agg] : tracer.setup_totals()) {
    json += std::string(first ? "" : ",") + "\"" + name + "\":{\"calls\":" +
            std::to_string(agg.count) + ",\"ms\":" + Num(agg.self_ns / 1e6) + "}";
    first = false;
  }
  json += "}}\n";
  if (cfg.trace_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(cfg.trace_dir, ec);
  const std::string stem = cfg.trace_dir + "/" + cfg.workload + "-seed" + std::to_string(cfg.seed);
  std::ofstream(stem + ".stages.json") << json;
  if (!tracer.WriteChromeTrace(stem + ".spans.json")) {
    std::fprintf(stderr, "xpcbench: cannot write %s.spans.json\n", stem.c_str());
  }
  std::printf("spans: %zu recorded, kept ones written to %s.spans.json\n", tracer.spans_recorded(),
              stem.c_str());
}

}  // namespace
}  // namespace xpcbench

int main(int argc, char** argv) {
  using namespace xpcbench;
  Config cfg;
  if (!ParseArgs(argc, argv, &cfg)) return Usage("bad or missing arguments");
  auto it = Workloads().find(cfg.workload);
  if (it == Workloads().end()) return Usage(("unknown workload " + cfg.workload).c_str());

  const int64_t start_ns = NowNs();
  Tracer tracer(cfg.trace, /*keep_limit=*/200000);
  RunResult r = it->second(cfg, tracer);
  const double wall_s = SecondsSince(start_ns);

  if (!cfg.digest_file.empty()) CompareDigest(cfg.workload, cfg.seed, cfg.digest_file, r);
  if (!cfg.write_digest.empty()) {
    std::ofstream out(cfg.write_digest);
    out << "seed " << cfg.seed << "\n";
    for (const auto& [section, codes] : r.digest) {
      out << cfg.workload << "/" << section << " " << codes << "\n";
    }
  }

  std::printf("== xpcbench %s seed=%llu seconds=%g trace=%d scale=%g (%.1f s wall) ==\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? 1 : 0, cfg.scale, wall_s);
  for (const std::string& s : r.settings) std::printf("  %s\n", s.c_str());

  const int64_t n = r.ops.count();
  const double tail = TailQuantileLevel(n);
  std::vector<MetricValue> e2e = {
      {"setup_s", Median(r.setup_seconds), "s", static_cast<int64_t>(r.setup_seconds.size())},
      {"queries_per_s", r.timed_seconds > 0 ? n / r.timed_seconds : 0, "1/s", n},
      {"query_p50_ms", r.ops.all().QuantileMs(0.5), "ms", n},
      {"query_p99_ms", r.ops.all().QuantileMs(tail), "ms", n},
      {"decided_ratio", n ? static_cast<double>(r.ops.decided()) / n : 0, "ratio", n},
      {"failed_ratio", n ? static_cast<double>(r.ops.failed()) / n : 0, "ratio", n},
      {"peak_rss_mb", r.peak_rss_mb, "MB", 1},
  };
  std::printf("end-to-end (%s run, %.2f s timed; p99 is the %.4g quantile):\n",
              cfg.trace ? "traced" : "untraced", r.timed_seconds, tail);
  for (const MetricValue& m : e2e) {
    std::printf("  %-28s %16.6g %-6s n=%lld\n", m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<long long>(m.samples));
  }
  for (const MetricValue& m : r.extra) {
    std::printf("  %-28s %16.6g %-6s n=%lld\n", m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<long long>(m.samples));
  }
  // Which routes the latency figures cover.
  std::string routes;
  for (int k = 0; k < kNumRoutes; ++k) {
    const int64_t c = r.ops.route(static_cast<Route>(k)).count();
    if (c == 0) continue;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s%s %lld (%.1f%%)", routes.empty() ? "" : ", ",
                  RouteName(static_cast<Route>(k)), static_cast<long long>(c),
                  n ? 100.0 * static_cast<double>(c) / static_cast<double>(n) : 0.0);
    routes += buf;
  }
  std::printf("  routes: %s\n", routes.c_str());

  std::map<std::string, MetricValue> layer;
  for (const MetricValue& m : r.per_layer) layer[m.name] = m;
  if (cfg.trace) {
    std::printf("per-layer:\n");
    for (const MetricSpec& spec : kPerLayer) {
      auto l = layer.find(spec.name);
      const double v = l == layer.end() ? 0 : l->second.value;
      const long long samples = l == layer.end() ? 0 : static_cast<long long>(l->second.samples);
      std::printf("  %-34s %16.6g %-6s n=%lld\n", spec.name, v, spec.unit, samples);
    }
    ReportStages(cfg, tracer);
  }

  const bool correct = r.errors == 0;
  for (const std::string& f : r.failures) std::printf("FAIL: %s\n", f.c_str());
  if (!correct) {
    std::printf("FAIL: %lld failed checks, %lld of %lld ops failed\n",
                static_cast<long long>(r.errors), static_cast<long long>(r.ops.failed()),
                static_cast<long long>(n));
  }

  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(n) +
                     ", \"failed\": " + std::to_string(r.ops.failed()) + ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const std::string& name, double value, const std::string& unit) {
    json += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " + Num(value) +
            ", \"unit\": \"" + unit + "\"}";
    first = false;
  };
  if (cfg.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      auto l = layer.find(spec.name);
      emit(spec.name, l == layer.end() ? 0 : l->second.value, spec.unit);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      for (const MetricValue& m : e2e) {
        if (m.name == spec.name) emit(m.name, m.value, spec.unit);
      }
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
