#include "trace.h"

#include <cstdio>
#include <cstring>

namespace xpcbench {

void Tracer::BeginQuery(int64_t query_id) {
  if (!enabled_) return;
  query_ = query_id;
  current_.clear();
  open_stack_.clear();
  Open("query");
}

int Tracer::Open(const char* name) {
  const int32_t parent = open_stack_.empty() ? -1 : open_stack_.back();
  current_.push_back({name, NowNs(), 0, parent, query_});
  const int index = static_cast<int>(current_.size()) - 1;
  open_stack_.push_back(index);
  return index;
}

void Tracer::Close(int span) {
  current_[span].end_ns = NowNs();
  // Spans close in LIFO order; tolerate a scope closed out of order by
  // popping down to it.
  while (!open_stack_.empty()) {
    const int32_t top = open_stack_.back();
    open_stack_.pop_back();
    if (top == span) break;
  }
}

void Tracer::EndQuery(Route route, int64_t ops) {
  if (!enabled_) return;
  Close(0);
  Fold(route, ops);
  spans_recorded_ += current_.size();
  for (const Span& s : current_) {
    if (kept_.size() >= keep_limit_) break;
    kept_.push_back(s);
  }
  current_.clear();
}

void Tracer::Fold(Route route, int64_t ops) {
  const size_t n = current_.size();
  std::vector<double> child_ns(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = current_[i];
    if (s.parent >= 0) child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
  }
  if (query_ < 0) {
    for (size_t i = 1; i < n; ++i) {
      Agg& a = setup_totals_[current_[i].name];
      a.self_ns += static_cast<double>(current_[i].end_ns - current_[i].start_ns) - child_ns[i];
      ++a.count;
    }
    return;
  }
  // A span is a stage when "stages" is among its ancestors.
  std::vector<char> under_stages(n, 0);
  double op_ns = 0;
  bool has_op = false;
  double stage_self_ns = 0;
  auto& by_route = route_totals_[static_cast<int>(route)];
  for (size_t i = 0; i < n; ++i) {
    const Span& s = current_[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    const double self = dur - child_ns[i];
    if (s.parent >= 0) {
      under_stages[i] = under_stages[s.parent] ||
                        std::strcmp(current_[s.parent].name, "stages") == 0;
    }
    if (std::strcmp(s.name, "op") == 0) {
      op_ns += dur;
      has_op = true;
    }
    if (under_stages[i]) stage_self_ns += self;
    if (std::strcmp(s.name, "query") == 0) continue;
    Agg& a = totals_[s.name];
    a.self_ns += self;
    ++a.count;
    Agg& r = by_route[s.name];
    r.self_ns += self;
    ++r.count;
  }
  if (has_op) {
    const double residual = op_ns - stage_self_ns;
    totals_["residual"].self_ns += residual;
    ++totals_["residual"].count;
    by_route["residual"].self_ns += residual;
    ++by_route["residual"].count;
  }
  ops_ += ops;
  route_ops_[static_cast<int>(route)] += ops;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = kept_.empty() ? 0 : kept_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"query\":%lld,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name, (s.start_ns - origin) / 1000.0,
                 (s.end_ns - s.start_ns) / 1000.0, static_cast<long long>(s.query), s.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace xpcbench
