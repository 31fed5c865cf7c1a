// Span tracing for the traced run. Spans are recorded by the benchmark's own
// code around its calls into the library's public functions; the library is
// not instrumented further.
//
// Each traced operation records a small span tree:
//
//   query                  the whole traced unit (one id per operation)
//     op                   the user-visible call (Session / StreamMatcher)
//     stages               the same work replayed stage by stage
//       xpath.parse, xpath.intern, core.lookup, reduction, classify.profile,
//       edtd.encode, pathauto.normal_form, translate.intersect_product,
//       sat.{fastpath,downward,loop,bounded}, eval.verify, stream.route, ...
//
// A span's self time is its duration minus its children's durations. The
// residual of an operation is the op span's duration minus the summed self
// times of the stage spans: the part of the call no stage accounts for.
#ifndef XPCBENCH_TRACE_H_
#define XPCBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace xpcbench {

class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  ///< Index within the current operation, -1 for none.
    int64_t query;
  };
  /// Per-name totals over all folded operations.
  struct Agg {
    double self_ns = 0;
    int64_t count = 0;
  };

  /// A disabled tracer records nothing and costs one branch per call.
  Tracer(bool enabled, size_t keep_limit) : enabled_(enabled), keep_limit_(keep_limit) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  /// Tracing can be switched off for an untraced stretch of a traced run.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Starts the spans of one operation (opens its "query" root span). A
  /// negative id marks set-up work, which is totalled apart from operations.
  void BeginQuery(int64_t query_id);
  /// Closes the root, folds the operation's spans into the totals under
  /// `route`, and counts `ops` operations (a batch counts its size).
  void EndQuery(Route route, int64_t ops = 1);

  int Open(const char* name);
  void Close(int span);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name)
        : tracer_(tracer), span_(tracer.enabled() ? tracer.Open(name) : -1) {}
    ~Scope() {
      if (span_ >= 0) tracer_.Close(span_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int span_;
  };

  /// Totals: per stage name, and per (route, stage name). The op span's
  /// total is under "op"; the residual under "residual".
  const std::map<std::string, Agg>& totals() const { return totals_; }
  const std::array<std::map<std::string, Agg>, kNumRoutes>& route_totals() const {
    return route_totals_;
  }
  const std::map<std::string, Agg>& setup_totals() const { return setup_totals_; }
  int64_t ops() const { return ops_; }
  int64_t route_ops(Route r) const { return route_ops_[static_cast<int>(r)]; }
  size_t spans_recorded() const { return spans_recorded_; }

  /// Writes the kept spans as a Chrome trace-event JSON file (viewable in
  /// chrome://tracing or Perfetto). Returns false if the file cannot be
  /// written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  void Fold(Route route, int64_t ops);

  bool enabled_;
  size_t keep_limit_;
  int64_t query_ = -1;
  std::vector<Span> current_;
  std::vector<int32_t> open_stack_;
  std::vector<Span> kept_;
  size_t spans_recorded_ = 0;
  int64_t ops_ = 0;
  std::array<int64_t, kNumRoutes> route_ops_{};
  std::map<std::string, Agg> totals_;
  std::map<std::string, Agg> setup_totals_;
  std::array<std::map<std::string, Agg>, kNumRoutes> route_totals_;
};

}  // namespace xpcbench

#endif  // XPCBENCH_TRACE_H_
