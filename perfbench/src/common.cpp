#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <sstream>

#include "util/thread_pool.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_NATIVE
#define PERFBENCH_NATIVE 0
#endif

namespace perfbench {

// --- statistics -------------------------------------------------------------

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0 || std::isinf(values[hi])) return frac == 0.0 ? values[lo] : values[hi];
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double tail_quantile(std::size_t n) { return n >= 100 ? 0.90 : 0.50; }

double p99_with_misses(std::vector<double> ok_latencies_ms, std::int64_t failed) {
  for (std::int64_t i = 0; i < failed; ++i) {
    ok_latencies_ms.push_back(std::numeric_limits<double>::infinity());
  }
  return percentile(std::move(ok_latencies_ms), 0.99);
}

double max_sustained_rate(const std::vector<RungResult>& rungs, double limit_ms) {
  double best = 0.0, best_p99 = 0.0;
  for (const RungResult& rung : rungs) {
    const bool meets = rung.sent > 0 && !rung.backlog && rung.p99_ms < limit_ms;
    if (meets) {
      best = rung.rate;
      best_p99 = rung.p99_ms;
      continue;
    }
    // The first miss: where p99 crosses the limit between the two rungs,
    // log-linear in p99. A miss by failed requests (p99 = inf) or by
    // backlog alone leaves the last passing rung.
    if (best > 0 && !rung.backlog && std::isfinite(rung.p99_ms) && best_p99 > 0) {
      const double frac = std::log(limit_ms / best_p99) / std::log(rung.p99_ms / best_p99);
      best += frac * (rung.rate - best);
    }
    break;
  }
  return best;
}

// --- output checks ------------------------------------------------------------

std::int64_t argmax(const float* row, std::int64_t classes) {
  std::int64_t best = 0;
  for (std::int64_t c = 1; c < classes; ++c) {
    if (row[c] > row[best]) best = c;
  }
  return best;
}

double accuracy_percent(const Logits& logits, const std::vector<std::int64_t>& labels) {
  if (logits.rows == 0 || static_cast<std::int64_t>(labels.size()) != logits.rows) return 0.0;
  std::int64_t correct = 0;
  for (std::int64_t r = 0; r < logits.rows; ++r) {
    if (argmax(logits.row(r), logits.classes) == labels[static_cast<std::size_t>(r)]) ++correct;
  }
  return 100.0 * static_cast<double>(correct) / static_cast<double>(logits.rows);
}

namespace {

std::string shape_mismatch(const Logits& a, const Logits& b) {
  if (a.rows == b.rows && a.classes == b.classes && a.rows > 0) return "";
  return "shapes differ: [" + std::to_string(a.rows) + "," + std::to_string(a.classes) +
         "] vs [" + std::to_string(b.rows) + "," + std::to_string(b.classes) + "]";
}

}  // namespace

std::string verdict_finite(const Logits& got) {
  for (std::int64_t i = 0; i < got.rows * got.classes; ++i) {
    if (!std::isfinite(got.data[i])) return "non-finite logit in row " + std::to_string(i / got.classes);
  }
  return "";
}

std::string verdict_bitwise(const Logits& got, const Logits& want) {
  if (std::string bad = shape_mismatch(got, want); !bad.empty()) return bad;
  for (std::int64_t r = 0; r < got.rows; ++r) {
    if (std::memcmp(got.row(r), want.row(r), static_cast<std::size_t>(got.classes) * sizeof(float)) !=
        0) {
      return "row " + std::to_string(r) + " differs bitwise";
    }
  }
  return "";
}

std::string verdict_cam_matches_float(const Logits& cam, const Logits& reference) {
  if (std::string bad = shape_mismatch(cam, reference); !bad.empty()) return bad;
  std::int64_t tight = 0;
  for (std::int64_t r = 0; r < cam.rows; ++r) {
    double scale = 0.0, worst = 0.0;
    for (std::int64_t c = 0; c < cam.classes; ++c) {
      scale = std::max(scale, std::fabs(static_cast<double>(reference.row(r)[c])));
      const double diff = std::fabs(static_cast<double>(cam.row(r)[c]) - reference.row(r)[c]);
      worst = std::isnan(diff) ? std::numeric_limits<double>::infinity() : std::max(worst, diff);
    }
    if (!(worst <= kCamLooseRtol * scale)) {
      return "row " + std::to_string(r) + " is off by " + std::to_string(worst) +
             " against a largest |logit| of " + std::to_string(scale);
    }
    if (worst <= kCamTightRtol * scale) ++tight;
  }
  if (3 * tight < cam.rows) {
    return "only " + std::to_string(tight) + " of " + std::to_string(cam.rows) +
           " rows agree to ulp level";
  }
  return "";
}

std::string verdict_argmax_agree(const Logits& got, const Logits& want) {
  if (std::string bad = shape_mismatch(got, want); !bad.empty()) return bad;
  for (std::int64_t r = 0; r < got.rows; ++r) {
    if (argmax(got.row(r), got.classes) != argmax(want.row(r), want.classes)) {
      return "argmax differs on row " + std::to_string(r);
    }
  }
  return "";
}

std::string verdict_accuracy_floor(const Logits& got, const std::vector<std::int64_t>& labels,
                                   double floor_pct) {
  const double acc = accuracy_percent(got, labels);
  if (acc >= floor_pct) return "";
  return "accuracy " + std::to_string(acc) + "% is under the " + std::to_string(floor_pct) +
         "% floor";
}

// --- run result ---------------------------------------------------------------

void Run::fail(const std::string& why, std::int64_t n) {
  failed_ += n;
  correct_ = false;
  std::cerr << "perfbench: FAILED: " << why << "\n";
}

void Run::check(const std::string& label, const std::string& verdict) {
  attempt();
  if (!verdict.empty()) fail("check: " + label + ": " + verdict);
}

// --- build stamp -------------------------------------------------------------

namespace {

const char* compiled_isa() {
#if defined(__AVX512F__)
  return "avx512f";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__AVX__)
  return "avx";
#elif defined(__SSE4_2__)
  return "sse4.2";
#elif defined(__x86_64__)
  return "sse2";
#elif defined(__ARM_FEATURE_SVE)
  return "sve";
#elif defined(__ARM_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return std::max(1, CPU_COUNT(&set));
  return 1;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB on Linux
}

Stamp make_stamp() {
  Stamp stamp;
  stamp.build_type = PERFBENCH_BUILD_TYPE;
  stamp.native = PERFBENCH_NATIVE != 0;
  stamp.isa = compiled_isa();
  stamp.kernel_lanes = pecan::util::global_lanes();
  stamp.executors = available_cpus();
  stamp.nproc = available_cpus();
#if defined(__clang__)
  stamp.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  stamp.compiler = std::string("gcc ") + __VERSION__;
#else
  stamp.compiler = "unknown";
#endif
  return stamp;
}

std::string record_json(const Run& run, const Stamp& stamp) {
  std::ostringstream out;
  out << "{\"record\": {\"workload\": " << json_string(run.options().workload)
      << ", \"seed\": " << run.options().seed << ", \"trace\": " << (run.options().trace ? 1 : 0)
      << ", \"stamp\": {\"build_type\": " << json_string(stamp.build_type)
      << ", \"native\": " << (stamp.native ? "true" : "false")
      << ", \"isa\": " << json_string(stamp.isa) << ", \"kernel_lanes\": " << stamp.kernel_lanes
      << ", \"executors\": " << stamp.executors << ", \"nproc\": " << stamp.nproc
      << ", \"compiler\": " << json_string(stamp.compiler) << "}, \"details\": {";
  const auto& details = run.details();
  for (std::size_t i = 0; i < details.size(); ++i) {
    out << (i ? ", " : "") << json_string(details[i].name) << ": "
        << json_number(details[i].value);
  }
  out << "}}}";
  return out.str();
}

std::string result_json(const Run& run) {
  std::ostringstream out;
  out << "{\"correct\": " << (run.correct() ? "true" : "false")
      << ", \"attempted\": " << run.attempted() << ", \"failed\": " << run.failed()
      << ", \"metrics\": {";
  const auto& metrics = run.metrics();
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << json_string(metrics[i].name)
        << ": {\"value\": " << json_number(metrics[i].value)
        << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
