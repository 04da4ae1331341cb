// Layer-resolved views of a compiled engine, shared by the two serving
// workloads: the step-by-step traced pass over a plan, the CAM op ledger as
// per-image figures, and the output checks both workloads make.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "ops/op_count.hpp"
#include "runtime/engine.hpp"

namespace perfbench {

/// The steps `engine` executes for its CAM export (nested Sequentials
/// flattened); checks they are the ones Engine::plan_names() lists.
std::vector<const pecan::nn::Module*> plan_steps(Run& run, pecan::runtime::Engine& engine,
                                                 const std::string& label);

/// Runs `batch` through `steps` one infer() call at a time, each under a
/// span "plan.<model>.<step>", all under one "plan.forward" span. Returns
/// the logits.
pecan::Tensor traced_plan_pass(const std::vector<const pecan::nn::Module*>& steps,
                               const std::string& model, const pecan::Tensor& batch,
                               std::uint64_t request);

/// Per-layer figures of the traced plan passes: plan.<model>.<step>.ms (self
/// time per image, median over passes) and .analytic_ops, plus
/// cam.scan_gb_per_s (scanned bytes over the time per image spent in steps
/// that hold CAM layers). Analytic ops come from the float network's
/// top-level layer of the same name ("conv1" for step "conv1.cam"), which
/// must have run one forward so its layers know their input shapes.
void plan_metrics(const std::vector<const pecan::nn::Module*>& steps, const std::string& model,
                  const pecan::nn::Sequential& float_net, std::int64_t images_per_pass,
                  double scan_bytes_per_inf, std::map<std::string, double>& out);

/// Op-ledger delta between two snapshots, per image.
struct LedgerPerImage {
  double searches = 0, lut_reads = 0, adds = 0, muls = 0;
};
LedgerPerImage ledger_per_image(const pecan::ops::OpTotals& before,
                                const pecan::ops::OpTotals& after, std::int64_t images);
/// cam.searches_per_inf, cam.lut_reads_per_inf, cam.adds_per_inf,
/// cam.scan_bytes_per_inf.
void ledger_metrics(const LedgerPerImage& ledger, double scan_bytes_per_inf,
                    std::map<std::string, double>& out);

/// The checks both serving workloads make on their ledger: PECAN-D serves
/// without a single multiplication, and issues exactly the closed-form
/// number of CAM searches per image.
void check_ledger(Run& run, const LedgerPerImage& ledger, std::int64_t expected_searches,
                  const std::string& label);

/// Batched rows must be bitwise equal to per-sample forwards of the same
/// images (first `n` rows of `batch`).
void check_batched_equals_single(Run& run, pecan::runtime::Engine& engine,
                                 const pecan::Tensor& batch, const pecan::Tensor& batched_out,
                                 std::int64_t n, const std::string& label);

/// Rows [first, first + n) of a [N, ...] tensor.
pecan::Tensor slice_rows(const pecan::Tensor& t, std::int64_t first, std::int64_t n);
Logits logits_of(const pecan::Tensor& t);

}  // namespace perfbench
