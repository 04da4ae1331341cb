// Shared plumbing of the PECAN benchmark: statistics, the build stamp, the
// run result and its one-line JSON form, and the per-workload entry points.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- statistics -------------------------------------------------------------

/// Linear interpolation between closest ranks (numpy's default): q in [0, 1],
/// position q * (n - 1) in the sorted sample. Empty input reads 0.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// The tail the benchmark reports for a sample of n timings: p90 once ten
/// samples lie beyond it (n >= 100), else the median. p99 is not used even
/// with 1000 samples: on the shared VMs this was tuned on, p99 follows the
/// host's scheduling stalls and moved 38-67 ms between identical runs.
double tail_quantile(std::size_t n);

/// One rung of the open-loop rate ladder, as measured.
struct RungResult {
  double rate = 0;            ///< offered requests per second
  std::int64_t sent = 0;      ///< requests scheduled on the rung
  std::int64_t failed = 0;    ///< non-Ok replies, exceptions, wrong results
  double p99_ms = 0;          ///< over EVERY request, failed ones read as +inf
  bool backlog = false;       ///< the queue grew over the rung
};

/// The `max_rate_rps` rule: the highest rung whose p99 (with failed
/// requests counted as misses, i.e. infinitely late) stays under `limit_ms`
/// and that shows no growing backlog, refined toward the first rung that
/// misses by where its p99 crosses the limit (log-linear in p99; no
/// refinement when that rung missed by failures or backlog). Rungs must be
/// in ascending rate order; a lucky rung above a miss never counts. 0 when
/// even the first rung misses.
double max_sustained_rate(const std::vector<RungResult>& rungs, double limit_ms);

/// p99 over a rung's latencies where `failed` extra requests are misses.
double p99_with_misses(std::vector<double> ok_latencies_ms, std::int64_t failed);

// --- output checks ------------------------------------------------------------

/// Row-major logits [n, classes].
struct Logits {
  const float* data = nullptr;
  std::int64_t rows = 0;
  std::int64_t classes = 0;
  const float* row(std::int64_t r) const { return data + r * classes; }
};

std::int64_t argmax(const float* row, std::int64_t classes);
/// Percent of rows whose argmax equals the label.
double accuracy_percent(const Logits& logits, const std::vector<std::int64_t>& labels);

// Each verdict returns "" when the property holds, else what broke.

/// Every entry is finite.
std::string verdict_finite(const Logits& got);
/// Bitwise equal rows (wire vs in-process, batched vs per-sample, traced
/// step-by-step pass vs forward_batch, round-to-round losses).
std::string verdict_bitwise(const Logits& got, const Logits& want);
/// CAM Float32 vs the float PQ network's eval forward. The two paths sum in
/// a different order, so a query sitting on a Voronoi boundary can pick the
/// other prototype and move that image's logits by a few percent. Holds
/// when every row is within kCamLooseRtol of the row's largest |logit| and
/// at least a third of the rows within kCamTightRtol (ulp level).
constexpr double kCamTightRtol = 1e-4;
constexpr double kCamLooseRtol = 0.5;
std::string verdict_cam_matches_float(const Logits& cam, const Logits& reference);
/// The same argmax on every row.
std::string verdict_argmax_agree(const Logits& got, const Logits& want);
/// Accuracy at or above `floor_pct`.
std::string verdict_accuracy_floor(const Logits& got, const std::vector<std::int64_t>& labels,
                                   double floor_pct);

// --- run result ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;  ///< scratch files (artifacts, span dumps)
};

/// Accumulates operations and checks. Every check is itself an operation: a
/// failed one counts into `failed` and clears `correct`.
class Run {
 public:
  explicit Run(const Options& options) : options_(options) {}

  const Options& options() const { return options_; }
  void attempt(std::int64_t n = 1) { attempted_ += n; }
  void fail(const std::string& why, std::int64_t n = 1);
  /// One checked property: counts one operation, fails it when `verdict`
  /// (from a verdict_* function, or any message) is non-empty.
  void check(const std::string& label, const std::string& verdict);
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Extra figures that are neither metric kind (sample counts, the
  /// percentile used, the rung table); printed on the record line.
  void detail(const std::string& key, double value) { details_.push_back({key, value, ""}); }

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  bool correct() const { return correct_; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<Metric>& details() const { return details_; }

 private:
  Options options_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  bool correct_ = true;
  std::vector<Metric> metrics_;
  std::vector<Metric> details_;
};

// --- build stamp -------------------------------------------------------------

/// What a result set was measured on; two sets compare only when every
/// field matches (run.py refuses otherwise and names the field).
struct Stamp {
  std::string build_type;
  bool native = false;
  std::string isa;  ///< widest vector ISA the kernels were compiled for
  int kernel_lanes = 0;
  int executors = 0;
  int nproc = 0;
  std::string compiler;
};

Stamp make_stamp();
/// CPUs this process may run on (the affinity mask), at least 1.
int available_cpus();
/// Peak resident set of this process so far, in MB (1e6 bytes).
double peak_rss_mb();

/// The JSON record line (stamp + details) and the final result line.
std::string record_json(const Run& run, const Stamp& stamp);
std::string result_json(const Run& run);

// --- workloads ----------------------------------------------------------------

void run_wire_batch(Run& run);
void run_resnet_batch(Run& run);
void run_train_lenet(Run& run);

/// Every per-layer metric name and unit, in BENCHMARK.json order. A traced
/// run prints all of them; those measured by another workload read 0.
std::vector<Metric> per_layer_catalog();
/// Adds every catalog metric to `run`, taking values from `measured`;
/// throws on a measured name the catalog does not list.
void emit_per_layer(Run& run, const std::map<std::string, double>& measured);

}  // namespace perfbench
