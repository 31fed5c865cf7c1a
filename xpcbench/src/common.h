// Shared plumbing of the xpc benchmark: run configuration, per-operation
// records, latency statistics and the metric list each workload reports.
#ifndef XPCBENCH_COMMON_H_
#define XPCBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "xpc/core/session.h"

namespace xpcbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One splitmix64 step: advances `state`, returns the next value.
inline uint64_t SplitMix(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The FuzzGen seed of one workload: the run's seed and a per-workload salt,
/// mixed. FuzzGen steps its state by the splitmix64 increment, so seeding it
/// with seed * increment + salt would make neighbouring seeds draw the same
/// stream shifted by one value, i.e. nearly the same inputs.
inline uint64_t GeneratorSeed(uint64_t seed, uint64_t salt) {
  uint64_t state = seed ^ (salt << 32);
  return SplitMix(state);
}

/// Command-line configuration of one benchmark run.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Corpus-size multiplier; the self-test uses a small value.
  double scale = 1.0;
  /// Deliberately corrupts one recorded answer before checking, so the
  /// self-test can prove the checker fails the run.
  bool inject_wrong_verdict = false;
  /// Flips one traced replay answer, so the self-test can prove that a
  /// replay disagreeing with the Session fails the run.
  bool inject_replay_mismatch = false;
  /// Stored verdict digest to compare against (empty = none), and the file
  /// to write this run's digest to (empty = none).
  std::string digest_file;
  std::string write_digest;
  /// Where the traced run writes its spans and stage tables.
  std::string trace_dir;
};

/// Which route answered a query. The names match the per-route metrics.
enum class Route : uint8_t {
  kFastpath,
  kDownward,
  kLoop,
  kLoopEdtd,
  kBounded,
  kCacheHit,
  kStream,
  kOther,
};
inline constexpr int kNumRoutes = 8;
const char* RouteName(Route route);
/// Maps a result's engine stamp to its route.
Route RouteOfEngine(const std::string& engine);

/// One-character answer code, used in verdict digests:
///   sat queries         'S' sat, 'U' unsat
///   containment queries 'C' contained, 'N' not contained
///   either              '?' undecided (resource limit / unknown)
char SatCode(xpc::SolveStatus status);
char ContainmentCode(xpc::ContainmentVerdict verdict);
inline bool Decided(char code) { return code != '?'; }

/// One completed operation of the timed loop.
struct OpRecord {
  int64_t latency_ns = 0;
  int32_t key = -1;  ///< The distinct query (or document) the op submitted.
  Route route = Route::kOther;
  bool decided = false;
  bool failed = false;  ///< Threw, or answered differently than before.
};

/// Latency histogram in fixed memory: 256 buckets per power of two, so a
/// quantile reads within 0.4% of the sample, and recording a million
/// operations costs no memory that would show in peak RSS.
class LatencyHistogram {
 public:
  void Add(int64_t ns);
  int64_t count() const { return count_; }
  /// Nearest-rank quantile, milliseconds, placed within its bucket by rank;
  /// 0 when empty.
  double QuantileMs(double q) const;

 private:
  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
};

/// Everything the metrics need from the operations of a timed stretch.
class OpLog {
 public:
  void Add(const OpRecord& op);
  /// Counts, as failed, every op whose key the checker judged wrong.
  void FailKeys(const std::vector<char>& wrong_key);

  int64_t count() const { return all_.count(); }
  int64_t decided() const { return decided_; }
  int64_t failed() const { return failed_; }
  const LatencyHistogram& all() const { return all_; }
  const LatencyHistogram& route(Route r) const { return by_route_[static_cast<int>(r)]; }
  /// Loop-sat ops (schema-free or encoded) and those that hit a cap.
  int64_t loop_ops() const { return loop_ops_; }
  int64_t loop_capped() const { return loop_capped_; }

 private:
  LatencyHistogram all_;
  std::vector<LatencyHistogram> by_route_ = std::vector<LatencyHistogram>(kNumRoutes);
  std::vector<int64_t> ok_per_key_;  ///< Ops per key not already failed.
  int64_t decided_ = 0;
  int64_t failed_ = 0;
  int64_t loop_ops_ = 0;
  int64_t loop_capped_ = 0;
};

/// A metric as printed: name, value, unit, and the sample count behind it.
struct MetricValue {
  std::string name;
  double value = 0;
  std::string unit;
  int64_t samples = 0;
};

/// What a workload hands back to main().
struct RunResult {
  OpLog ops;
  /// Wall time of the timed loop, seconds.
  double timed_seconds = 0;
  /// Peak resident set size when the timed loop ended (before checking), MiB.
  double peak_rss_mb = 0;
  /// One sample per repetition of the workload's set-up calls, seconds.
  std::vector<double> setup_seconds;
  /// Solver limits and corpus parameters, printed with the results.
  std::vector<std::string> settings;
  /// Workload-specific end-to-end figures printed in the human table only
  /// (events/s and deliveries/s on stream_route).
  std::vector<MetricValue> extra;
  /// Per-layer metrics (traced run only).
  std::vector<MetricValue> per_layer;
  /// Every check that failed, and the first few descriptions.
  int64_t errors = 0;
  std::vector<std::string> failures;
  /// Verdict digest of this run: one string per digest section.
  std::map<std::string, std::string> digest;

  void Fail(const std::string& what);
};

/// Quantile of an unsorted sample (nearest rank); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
/// The reported "p99": the highest percentile (at most 99) that still
/// has at least ten samples beyond it.
double TailQuantileLevel(size_t n);
double Median(std::vector<double> values);

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// Explicit solver limits shared by the solving workloads. Without them a
/// single generated query can run for minutes or exhaust memory.
xpc::SolverOptions BenchSolverOptions();
std::string DescribeLimits(const xpc::SolverOptions& options);

}  // namespace xpcbench

#endif  // XPCBENCH_COMMON_H_
