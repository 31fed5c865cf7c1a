// stream_route: a few thousand streamable queries under the routing schema
// go through BundleOptimizer + CompileBundle once (set-up), then conforming
// documents are routed through StreamMatcher. The only workload that uses
// `stream`; per event the solver does nothing. One operation routes a fixed
// batch of documents with a counting match callback.
#include <algorithm>
#include <memory>

#include "corpus.h"
#include "workloads.h"
#include "xpc/edtd/conformance.h"
#include "xpc/eval/evaluator.h"
#include "xpc/schemaindex/schema_index.h"
#include "xpc/stream/bundle_optimizer.h"
#include "xpc/stream/stream_compile.h"
#include "xpc/stream/stream_event.h"
#include "xpc/stream/stream_matcher.h"
#include "xpc/xpath/printer.h"

namespace xpcbench {

namespace {

// Matches per event depend on which queries a seed draws; 1500 distinct of
// 3000 registered keeps that from swinging the per-document cost by seed.
constexpr size_t kRegistered = 3000;
constexpr size_t kDistinct = 1500;
constexpr size_t kDocuments = 256;
// Documents per operation. One document takes ~1.5 ms, so a single routing
// is exposed to sub-millisecond stalls of a shared host, which then set the
// p99; a batch of 8 (~12 ms) averages over them, and 32 distinct batches
// still give the slowest 1% of operations several batches.
constexpr size_t kBatchDocs = 8;
// Conforming documents of 450-500 nodes (~1k events), so one operation is
// one roughly fixed amount of work.
constexpr int kDocMaxNodes = 500;
constexpr int kDocMinNodes = 450;
// Documents whose every match is compared with the reference evaluator.
constexpr size_t kEvaluatorDocs = 2;
// Optimize dominates set-up (~2 s for 3000 registrations of 1500 queries).
constexpr int kSetupReps = 3;

xpc::Edtd RoutingEdtd() {
  return xpc::Edtd::Parse(
             "Feed -> feed := Channel*\n"
             "Channel -> channel := Meta? Item*\n"
             "Meta -> meta := epsilon\n"
             "Item -> item := Title? Body? Item*\n"
             "Title -> title := epsilon\n"
             "Body -> body := Para* Tag*\n"
             "Para -> para := epsilon\n"
             "Tag -> tag := epsilon\n")
      .value();
}

// Replays one document; returns false if the stream was unbalanced.
bool Route1(xpc::StreamMatcher& m, const std::vector<xpc::StreamEvent>& doc) {
  m.BeginDocument();
  for (const xpc::StreamEvent& e : doc) {
    switch (e.kind) {
      case xpc::StreamEventKind::kStartElement: m.StartElement(e.label); break;
      case xpc::StreamEventKind::kEndElement: m.EndElement(); break;
      case xpc::StreamEventKind::kText: m.Text(); break;
    }
  }
  return m.EndDocument();
}

// Preorder rank -> node id (stream ordinals are preorder ranks).
std::vector<xpc::NodeId> PreorderIds(const xpc::XmlTree& t) {
  std::vector<xpc::NodeId> order;
  std::vector<xpc::NodeId> stack = {t.root()};
  while (!stack.empty()) {
    const xpc::NodeId n = stack.back();
    stack.pop_back();
    order.push_back(n);
    std::vector<xpc::NodeId> kids = t.Children(n);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) stack.push_back(*it);
  }
  return order;
}

}  // namespace

RunResult RunStreamRoute(const Config& cfg, Tracer& tracer) {
  RunResult result;
  const xpc::Edtd edtd = RoutingEdtd();
  xpc::FuzzGen gen(GeneratorSeed(cfg.seed, 0x57EA));

  xpc::ExprGenOptions o = xpc::ExprGenOptions::Streamable();
  o.max_ops = 6;
  o.labels = {"feed", "channel", "item", "title", "body", "para", "tag", "meta"};
  const size_t n_registered = std::max<size_t>(50, static_cast<size_t>(kRegistered * cfg.scale));
  const size_t n_distinct = std::max<size_t>(10, static_cast<size_t>(kDistinct * cfg.scale));
  std::vector<Query> distinct =
      DrawCorpus(gen, {{"streamable", Claim::Kind::kPathSat, o, 1}}, n_distinct);
  std::vector<xpc::PathPtr> registered;
  std::vector<size_t> distinct_of;
  for (size_t i = 0; i < n_registered; ++i) {
    distinct_of.push_back(gen.NextBelow(distinct.size()));
    registered.push_back(distinct[distinct_of.back()].alpha);
  }

  const size_t n_docs =
      kBatchDocs * std::max<size_t>(1, static_cast<size_t>(kDocuments * cfg.scale) / kBatchDocs);
  const size_t n_batches = n_docs / kBatchDocs;
  std::vector<xpc::XmlTree> trees;
  std::vector<std::vector<xpc::StreamEvent>> docs;
  int64_t doc_events = 0;
  while (docs.size() < n_docs) {
    auto [ok, tree] = xpc::SampleConformingTree(edtd, kDocMaxNodes, gen.NextU64());
    if (!ok || tree.size() < kDocMinNodes) continue;
    docs.push_back(xpc::EventsOf(tree));
    doc_events += static_cast<int64_t>(docs.back().size());
    trees.push_back(std::move(tree));
  }

  result.settings.push_back("bundle: " + std::to_string(n_registered) + " registered queries (" +
                            std::to_string(distinct.size()) +
                            " distinct streamable, 6 ops) under the routing schema");
  result.settings.push_back("documents: " + std::to_string(docs.size()) + " conforming, " +
                            std::to_string(kDocMinNodes) + "-" + std::to_string(kDocMaxNodes) +
                            " nodes, " + std::to_string(doc_events) +
                            " events; one op = a batch of " + std::to_string(kBatchDocs) +
                            " documents routed with a counting callback");

  // Set-up: Session + SetEdtd + BundleOptimizer::Optimize + CompileBundle.
  std::unique_ptr<xpc::Session> session;
  xpc::OptimizedBundle plan;
  xpc::CompiledBundle bundle;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    xpc::SchemaIndex::ClearRegistry();
    session.reset();
    const bool traced_setup = cfg.trace && rep == kSetupReps - 1;
    tracer.set_enabled(traced_setup);
    tracer.BeginQuery(-1);
    const int64_t t0 = NowNs();
    xpc::SessionOptions options;
    options.schema_index.build_threads = 1;
    {
      Tracer::Scope s(tracer, "setup.session");
      session = std::make_unique<xpc::Session>(options);
    }
    {
      Tracer::Scope s(tracer, "core.set_edtd");
      session->SetEdtd(edtd);
    }
    {
      Tracer::Scope s(tracer, "stream.optimize");
      xpc::BundleOptimizer optimizer(session.get());
      plan = optimizer.Optimize(registered);
    }
    {
      Tracer::Scope s(tracer, "stream.compile");
      bundle = xpc::CompileBundle(plan.compile_set, static_cast<int>(n_registered));
    }
    result.setup_seconds.push_back(SecondsSince(t0));
    tracer.EndQuery(Route::kOther, 0);
  }
  result.settings.push_back("optimizer: " + std::to_string(plan.num_active) + " active, " +
                            std::to_string(plan.num_aliased) + " aliased, " +
                            std::to_string(plan.num_unsat) + " unsat, " +
                            std::to_string(plan.num_rejected) + " rejected; " +
                            std::to_string(bundle.nfa.num_states()) + " NFA states");
  result.settings.push_back("set-up: Session + SetEdtd + Optimize + CompileBundle, median of " +
                            std::to_string(kSetupReps));
  if (plan.num_rejected != 0) result.Fail("streamable queries rejected by the optimizer");

  xpc::Stats stream_stats;
  std::unique_ptr<xpc::ScopedStatsSink> sink;
  if (cfg.trace) sink = std::make_unique<xpc::ScopedStatsSink>(&stream_stats);

  int64_t delivered = 0;
  xpc::StreamMatcher matcher(&bundle);
  std::vector<int64_t> doc_deliveries(docs.size(), -1);

  // Stepping stretch: no callback, events/s.
  double step_seconds = 0;
  int64_t step_events = 0;
  {
    tracer.set_enabled(false);
    const double budget = cfg.seconds * (cfg.trace ? 0.2 : 0.1);
    const int64_t start = NowNs();
    for (size_t d = 0; SecondsSince(start) < budget; d = (d + 1) % docs.size()) {
      if (!Route1(matcher, docs[d])) result.Fail("unbalanced document " + std::to_string(d));
      step_events += static_cast<int64_t>(docs[d].size());
    }
    step_seconds = SecondsSince(start);
  }

  // Routing stretches: counting callback, one op per batch of documents.
  matcher.SetCallback([&delivered](int32_t, int64_t) { ++delivered; });
  // The traced run routes each batch again through a second matcher, the
  // whole batch as one stream span.
  xpc::StreamMatcher replay(&bundle);
  int64_t replayed = 0;
  replay.SetCallback([&replayed](int32_t, int64_t) { ++replayed; });
  int64_t route_events = 0;
  int64_t route_deliveries = 0;
  auto stretch = [&](double seconds, bool traced, OpLog& ops) {
    tracer.set_enabled(traced);
    const int64_t start = NowNs();
    double paused = 0;
    for (size_t i = 0; SecondsSince(start) < seconds; ++i) {
      const size_t b = i % n_batches;
      const size_t first = b * kBatchDocs;
      tracer.BeginQuery(static_cast<int64_t>(i));
      const int op_span = traced ? tracer.Open("op") : -1;
      OpRecord op;
      op.key = static_cast<int32_t>(b);
      op.route = Route::kStream;
      op.decided = true;
      // Running delivery count after each document of the batch.
      int64_t after[kBatchDocs];
      bool balanced[kBatchDocs];
      delivered = 0;
      const int64_t t0 = NowNs();
      for (size_t k = 0; k < kBatchDocs; ++k) {
        balanced[k] = Route1(matcher, docs[first + k]);
        after[k] = delivered;
      }
      op.latency_ns = NowNs() - t0;
      for (size_t k = 0; k < kBatchDocs; ++k) {
        const size_t d = first + k;
        const int64_t got = after[k] - (k == 0 ? 0 : after[k - 1]);
        if (!balanced[k]) {
          op.failed = true;
          result.Fail("unbalanced document " + std::to_string(d));
        }
        if (doc_deliveries[d] < 0) doc_deliveries[d] = got;
        if (doc_deliveries[d] != got) {
          op.failed = true;
          result.Fail("document " + std::to_string(d) + " delivered " + std::to_string(got) +
                      " matches, earlier " + std::to_string(doc_deliveries[d]));
        }
        route_events += static_cast<int64_t>(docs[d].size());
      }
      route_deliveries += delivered;
      if (traced) {
        const int64_t p0 = NowNs();
        tracer.Close(op_span);
        replayed = 0;
        {
          Tracer::Scope stages(tracer, "stages");
          Tracer::Scope s(tracer, "stream.route");
          for (size_t k = 0; k < kBatchDocs; ++k) Route1(replay, docs[first + k]);
        }
        if (replayed != delivered) {
          result.Fail("traced replay of batch " + std::to_string(b) + " delivered " +
                      std::to_string(replayed) + " matches, the routing " +
                      std::to_string(delivered));
        }
        tracer.EndQuery(Route::kStream);
        paused += SecondsSince(p0);
      }
      ops.Add(op);
    }
    return SecondsSince(start) - paused;
  };

  OpLog untraced;
  if (cfg.trace) {
    stretch(cfg.seconds * 0.2, false, untraced);
    route_events = 0;
    route_deliveries = 0;
    result.timed_seconds = stretch(cfg.seconds * 0.6, true, result.ops);
  } else {
    result.timed_seconds = stretch(cfg.seconds * 0.9, false, result.ops);
  }
  result.peak_rss_mb = PeakRssMb();
  sink.reset();

  const double events_per_s = step_seconds > 0 ? step_events / step_seconds : 0;
  const double deliveries_per_s =
      result.timed_seconds > 0 ? route_deliveries / result.timed_seconds : 0;
  result.extra.push_back({"events_per_s", events_per_s, "1/s", step_events});
  result.extra.push_back({"deliveries_per_s", deliveries_per_s, "1/s", route_deliveries});

  // Check: every match of the first documents against the reference
  // evaluator, from the document root.
  std::vector<char> wrong(n_batches, 0);  // Per batch, i.e. per op key.
  xpc::StreamMatcher checker_matcher(&bundle);
  for (size_t d = 0; d < std::min(kEvaluatorDocs, docs.size()); ++d) {
    std::vector<std::vector<int64_t>> got(n_registered);
    for (const auto& [q, n] : checker_matcher.MatchStream(docs[d])) got[q].push_back(n);
    if (cfg.inject_wrong_verdict && d == 0) got[0].push_back(static_cast<int64_t>(trees[d].size()));
    const std::vector<xpc::NodeId> id_of = PreorderIds(trees[d]);
    const xpc::Evaluator ev(trees[d]);
    std::vector<std::vector<int64_t>> want(distinct.size());
    for (size_t k = 0; k < distinct.size(); ++k) {
      const xpc::Relation r = ev.EvalPath(distinct[k].alpha);
      for (size_t rank = 0; rank < id_of.size(); ++rank) {
        if (r.Contains(trees[d].root(), id_of[rank])) want[k].push_back(static_cast<int64_t>(rank));
      }
    }
    for (size_t q = 0; q < n_registered; ++q) {
      std::sort(got[q].begin(), got[q].end());
      const std::vector<int64_t>& w = want[distinct_of[q]];
      const bool ok = plan.queries[q].disposition == xpc::BundleQueryInfo::Disposition::kUnsat
                          ? got[q].empty() && w.empty()
                          : got[q] == w;
      if (ok) continue;
      wrong[d / kBatchDocs] = 1;
      result.Fail("document " + std::to_string(d) + ", query " + std::to_string(q) + " (" +
                  xpc::ToString(registered[q]) + "): " + std::to_string(got[q].size()) +
                  " matches, the evaluator finds " + std::to_string(w.size()));
    }
  }
  std::string counts;
  for (size_t d = 0; d < docs.size(); ++d) {
    counts += (d ? "," : "") + std::to_string(doc_deliveries[d]);
  }
  result.digest["deliveries"] = counts;
  result.ops.FailKeys(wrong);
  result.settings.push_back("checker: every match of " + std::to_string(kEvaluatorDocs) +
                            " documents compared with the evaluator for all " +
                            std::to_string(n_registered) +
                            " registered queries; repeat routings compared by delivery count");

  if (cfg.trace) {
    auto add = [&](const char* name, double v, const char* unit, int64_t n) {
      result.per_layer.push_back({name, v, unit, n});
    };
    StageCounters none;
    AddLayerMetrics(tracer, none, EngineTally{}, OpLog{}, result);
    const xpc::StatsSnapshot s = stream_stats.Snapshot();
    add("stream.step_ns_per_event", step_events ? step_seconds * 1e9 / step_events : 0, "ns",
        step_events);
    add("stream.dfa_states", matcher.dfa_states(), "count", 1);
    add("stream.dfa_misses", static_cast<double>(s.value(xpc::Metric::kStreamDfaMisses)), "count",
        1);
    add("stream.deliveries_per_event",
        route_events ? static_cast<double>(route_deliveries) / route_events : 0, "count",
        route_events);
    add("stream.events_per_s", events_per_s, "1/s", step_events);
    add("stream.deliveries_per_s", deliveries_per_s, "1/s", route_deliveries);
    AddTraceOverhead(untraced, result);
  }
  return result;
}

}  // namespace xpcbench
