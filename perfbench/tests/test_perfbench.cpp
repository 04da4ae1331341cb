// The benchmark's own tests: its statistics, the max-rate rule, span self
// time, and that every output check fails on a corrupted logits row.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common.hpp"
#include "plan.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

TEST(Stats, PercentileInterpolatesBetweenClosestRanks) {
  EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3}, 1.0), 3.0);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_NEAR(percentile(hundred, 0.99), 99.01, 1e-9);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(median({5}), 5.0);
}

TEST(Stats, TailHasTenSamplesBeyondIt) {
  EXPECT_DOUBLE_EQ(tail_quantile(20), 0.5);
  EXPECT_DOUBLE_EQ(tail_quantile(99), 0.5);
  EXPECT_DOUBLE_EQ(tail_quantile(100), 0.9);
  EXPECT_DOUBLE_EQ(tail_quantile(5000), 0.9);
}

TEST(Stats, FailedRequestsAreInfinitelyLate) {
  std::vector<double> ok(98, 1.0);
  EXPECT_TRUE(std::isinf(p99_with_misses(ok, 2)));
  EXPECT_DOUBLE_EQ(p99_with_misses(std::vector<double>(1000, 1.0), 1), 1.0);
}

RungResult rung(double rate, double p99, bool backlog = false, std::int64_t failed = 0) {
  RungResult r;
  r.rate = rate;
  r.sent = 1000;
  r.failed = failed;
  r.p99_ms = p99;
  r.backlog = backlog;
  return r;
}

TEST(MaxRate, HighestPassingRungRefinedTowardTheFirstMiss) {
  // 10 ms at 200, 100 ms at 400, limit 50: log-linear crossing at half way
  // in log space.
  const double expect = 200 + 200 * std::log(5.0) / std::log(10.0);
  EXPECT_NEAR(max_sustained_rate({rung(100, 5), rung(200, 10), rung(400, 100)}, 50), expect,
              1e-9);
  EXPECT_DOUBLE_EQ(max_sustained_rate({rung(100, 5), rung(200, 10)}, 50), 200);
}

TEST(MaxRate, AFailedRequestCountsAsAMiss) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> fast(98, 1.0);
  const RungResult failing = rung(400, p99_with_misses(fast, 2), false, 2);
  EXPECT_TRUE(std::isinf(failing.p99_ms));
  // A miss by failures is not interpolated: the last passing rung stands.
  EXPECT_DOUBLE_EQ(max_sustained_rate({rung(200, 10), failing}, 50), 200);
  EXPECT_DOUBLE_EQ(max_sustained_rate({rung(200, inf)}, 50), 0);
}

TEST(MaxRate, BacklogMissesAndALuckyRungAboveAMissNeverCounts) {
  EXPECT_DOUBLE_EQ(max_sustained_rate({rung(200, 10), rung(400, 20, true)}, 50), 200);
  EXPECT_DOUBLE_EQ(max_sustained_rate({rung(200, 10), rung(400, 500), rung(800, 10)}, 50),
                   max_sustained_rate({rung(200, 10), rung(400, 500)}, 50));
  EXPECT_DOUBLE_EQ(max_sustained_rate({rung(200, 60)}, 50), 0);
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren) {
  // Parent 0..100 ms; children 10..40 and 30..50 overlap (union 40 ms) and
  // one child runs past the parent's end (clipped).
  const std::int64_t ms = 1000000;
  const std::vector<Span> spans = {
      {"parent", 0, 100 * ms, 1, -1, 7},
      {"a", 10 * ms, 40 * ms, 2, 1, 7},
      {"b", 30 * ms, 50 * ms, 3, 1, 7},
      {"c", 90 * ms, 120 * ms, 4, 1, 7},
  };
  const std::vector<double> self = self_times_ms(spans);
  EXPECT_DOUBLE_EQ(self[0], 50.0);
  EXPECT_DOUBLE_EQ(self[1], 30.0);
  EXPECT_DOUBLE_EQ(self[3], 30.0);
}

// --- output checks on a corrupted logits row -----------------------------------

struct Rows {
  std::vector<float> data;
  Logits view(std::int64_t rows, std::int64_t classes) const {
    return {data.data(), rows, classes};
  }
};

Rows sample_logits() {
  // 6 rows x 4 classes; row r peaks at class r % 4.
  Rows r;
  for (int row = 0; row < 6; ++row) {
    for (int c = 0; c < 4; ++c) r.data.push_back(c == row % 4 ? 10.0f + row : 1.0f * c - 2.0f);
  }
  return r;
}

TEST(Checks, BitwiseFailsOnACorruptedRow) {
  const Rows want = sample_logits();
  Rows got = want;
  EXPECT_EQ(verdict_bitwise(got.view(6, 4), want.view(6, 4)), "");
  got.data[2 * 4 + 1] = std::nextafter(got.data[2 * 4 + 1], 100.0f);
  EXPECT_NE(verdict_bitwise(got.view(6, 4), want.view(6, 4)), "");
  EXPECT_NE(verdict_bitwise(got.view(5, 4), want.view(6, 4)), "");
}

TEST(Checks, CamVsFloatFailsOnACorruptedRow) {
  const Rows reference = sample_logits();
  Rows cam = reference;
  cam.data[0] += 1e-5f;  // ulp-level: still tight
  EXPECT_EQ(verdict_cam_matches_float(cam.view(6, 4), reference.view(6, 4)), "");
  cam.data[1 * 4 + 1] += 0.5f;  // one prototype flip's worth: allowed
  EXPECT_EQ(verdict_cam_matches_float(cam.view(6, 4), reference.view(6, 4)), "");
  Rows garbage = cam;
  garbage.data[3 * 4 + 3] = 40.0f;  // one row far off
  EXPECT_NE(verdict_cam_matches_float(garbage.view(6, 4), reference.view(6, 4)), "");
  Rows nan = reference;
  nan.data[5 * 4] = std::nanf("");
  EXPECT_NE(verdict_cam_matches_float(nan.view(6, 4), reference.view(6, 4)), "");
  Rows drift = reference;  // every row off by 1%: fails the ulp-level third
  for (float& v : drift.data) v *= 1.01f;
  EXPECT_NE(verdict_cam_matches_float(drift.view(6, 4), reference.view(6, 4)), "");
}

TEST(Checks, ArgmaxAgreementFailsOnACorruptedRow) {
  const Rows want = sample_logits();
  Rows got = want;
  EXPECT_EQ(verdict_argmax_agree(got.view(6, 4), want.view(6, 4)), "");
  got.data[4 * 4 + 2] = 99.0f;  // row 4 now peaks at class 2, not 0
  EXPECT_NE(verdict_argmax_agree(got.view(6, 4), want.view(6, 4)), "");
}

TEST(Checks, AccuracyFloorFailsOnACorruptedRow) {
  Rows got = sample_logits();
  const std::vector<std::int64_t> labels = {0, 1, 2, 3, 0, 1};
  EXPECT_EQ(verdict_accuracy_floor(got.view(6, 4), labels, 100.0), "");
  got.data[1 * 4 + 3] = 99.0f;
  EXPECT_NE(verdict_accuracy_floor(got.view(6, 4), labels, 100.0), "");
}

TEST(Checks, FiniteFailsOnACorruptedRow) {
  Rows got = sample_logits();
  EXPECT_EQ(verdict_finite(got.view(6, 4)), "");
  got.data[3 * 4 + 2] = std::numeric_limits<float>::infinity();
  EXPECT_NE(verdict_finite(got.view(6, 4)), "");
}

TEST(Checks, LedgerChecksCountAndFail) {
  perfbench::Run run(Options{});
  LedgerPerImage ledger;
  ledger.searches = 1718;
  check_ledger(run, ledger, 1718, "ok");
  EXPECT_TRUE(run.correct());
  EXPECT_EQ(run.attempted(), 2);
  ledger.muls = 1;
  ledger.searches = 1717;
  check_ledger(run, ledger, 1718, "bad");
  EXPECT_FALSE(run.correct());
  EXPECT_EQ(run.attempted(), 4);
  EXPECT_EQ(run.failed(), 2);
}

TEST(Result, PrintsEveryMetricWithItsUnit) {
  perfbench::Run run(Options{});
  run.attempt(3);
  run.metric("latency_p50_ms", 1.25, "ms");
  run.metric("setup_s", 0.5, "s");
  EXPECT_EQ(result_json(run),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, "
            "\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
}

}  // namespace
}  // namespace perfbench
