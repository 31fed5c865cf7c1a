#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <sstream>

namespace xpcbench {

const char* RouteName(Route route) {
  switch (route) {
    case Route::kFastpath: return "fastpath";
    case Route::kDownward: return "downward";
    case Route::kLoop: return "loop";
    case Route::kLoopEdtd: return "loop_edtd";
    case Route::kBounded: return "bounded";
    case Route::kCacheHit: return "cache_hit";
    case Route::kStream: return "stream";
    case Route::kOther: return "other";
  }
  return "other";
}

Route RouteOfEngine(const std::string& engine) {
  auto starts = [&](const char* prefix) { return engine.rfind(prefix, 0) == 0; };
  if (starts("fastpath-")) return Route::kFastpath;
  if (starts("downward-sat")) return Route::kDownward;
  if (starts("bounded-sat")) return Route::kBounded;
  if (starts("loop-sat")) {
    return engine.find("+edtd-encoding") != std::string::npos ? Route::kLoopEdtd : Route::kLoop;
  }
  return Route::kOther;
}

char SatCode(xpc::SolveStatus status) {
  switch (status) {
    case xpc::SolveStatus::kSat: return 'S';
    case xpc::SolveStatus::kUnsat: return 'U';
    case xpc::SolveStatus::kResourceLimit: return '?';
  }
  return '?';
}

char ContainmentCode(xpc::ContainmentVerdict verdict) {
  switch (verdict) {
    case xpc::ContainmentVerdict::kContained: return 'C';
    case xpc::ContainmentVerdict::kNotContained: return 'N';
    case xpc::ContainmentVerdict::kUnknown: return '?';
  }
  return '?';
}

void RunResult::Fail(const std::string& what) {
  ++errors;
  if (failures.size() < 8) failures.push_back(what);
}

namespace {

// Bucket b covers [m << s, (m + 1) << s) with m in [256, 512) for s >= 1;
// values below 512 ns get one bucket each.
size_t BucketOf(uint64_t v) {
  const int msb = v == 0 ? 0 : 63 - __builtin_clzll(v);
  const int shift = msb > 8 ? msb - 8 : 0;
  return shift == 0 ? static_cast<size_t>(v) : static_cast<size_t>(shift) * 256 + (v >> shift);
}

// Lower bound and width of bucket b, nanoseconds.
std::pair<double, double> BucketRange(size_t b) {
  if (b < 512) return {static_cast<double>(b), 1.0};
  const size_t shift = b / 256 - 1;
  return {static_cast<double>((b - shift * 256) << shift),
          static_cast<double>(uint64_t{1} << shift)};
}

}  // namespace

void LatencyHistogram::Add(int64_t ns) {
  const size_t b = BucketOf(static_cast<uint64_t>(ns < 0 ? 0 : ns));
  if (b >= buckets_.size()) buckets_.resize(b + 1, 0);
  ++buckets_[b];
  ++count_;
}

double LatencyHistogram::QuantileMs(double q) const {
  if (count_ == 0) return 0;
  int64_t rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(count_)));
  rank = std::clamp<int64_t>(rank, 1, count_);
  int64_t seen = 0;
  for (size_t b = 0; b < buckets_.size(); ++b) {
    if (seen + buckets_[b] >= rank) {
      // Spread the bucket's samples evenly over its width.
      const auto [low, width] = BucketRange(b);
      const double within = (static_cast<double>(rank - seen) - 0.5) / buckets_[b];
      return (low + width * within) / 1e6;
    }
    seen += buckets_[b];
  }
  return 0;
}

void OpLog::Add(const OpRecord& op) {
  all_.Add(op.latency_ns);
  by_route_[static_cast<int>(op.route)].Add(op.latency_ns);
  if (op.decided) ++decided_;
  if (op.route == Route::kLoop || op.route == Route::kLoopEdtd) {
    ++loop_ops_;
    if (!op.decided) ++loop_capped_;
  }
  if (op.failed) {
    ++failed_;
  } else if (op.key >= 0) {
    if (static_cast<size_t>(op.key) >= ok_per_key_.size()) ok_per_key_.resize(op.key + 1, 0);
    ++ok_per_key_[op.key];
  }
}

void OpLog::FailKeys(const std::vector<char>& wrong_key) {
  for (size_t k = 0; k < wrong_key.size() && k < ok_per_key_.size(); ++k) {
    if (!wrong_key[k]) continue;
    failed_ += ok_per_key_[k];
    ok_per_key_[k] = 0;
  }
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  if (rank == 0) rank = 1;
  if (rank > values.size()) rank = values.size();
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double TailQuantileLevel(size_t n) {
  if (n < 20) return 0.5;
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

xpc::SolverOptions BenchSolverOptions() {
  xpc::SolverOptions o;
  // About 0.13 ms per loop-sat item on generated 6-op containment queries,
  // so one loop-sat solve stays under ~40 ms; the encoded (EDTD) route costs
  // several times more per item and gets its own cap in schema_solve.
  o.loop.max_items = 300;
  o.loop.max_pool = 300;
  o.downward.max_inst_paths = 8000;
  o.downward.max_summaries = 20000;
  o.downward.max_atoms = 20000;
  o.downward.sat_threads = 1;
  // An undecided exhaustive search costs ~0.08 s at 4 nodes and ~0.6 s at 5.
  o.bounded.max_exhaustive_nodes = 4;
  o.bounded.random_trees = 20;
  o.bounded.max_random_nodes = 8;
  return o;
}

std::string DescribeLimits(const xpc::SolverOptions& o) {
  std::ostringstream out;
  out << "loop.max_items=" << o.loop.max_items << " loop.max_pool=" << o.loop.max_pool
      << " downward.max_inst_paths=" << o.downward.max_inst_paths
      << " downward.max_summaries=" << o.downward.max_summaries
      << " downward.max_atoms=" << o.downward.max_atoms
      << " bounded.max_exhaustive_nodes=" << o.bounded.max_exhaustive_nodes
      << " bounded.random_trees=" << o.bounded.random_trees
      << " bounded.max_random_nodes=" << o.bounded.max_random_nodes
      << " fast_paths=" << (o.fast_paths ? 1 : 0)
      << " verify_witnesses=" << (o.verify_witnesses ? 1 : 0);
  return out.str();
}

}  // namespace xpcbench
