// resnet-batch: ResNet20 PECAN-D on the CAM path at Float32. One caller runs
// Engine::forward_batch in a closed loop on batches of 16 CIFAR-10-like
// images; no wire, queue or batcher. See README.md.
#include <cmath>
#include <map>

#include "common.hpp"
#include "models.hpp"
#include "plan.hpp"
#include "runtime/engine.hpp"
#include "runtime/model_artifact.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace pecan;

namespace {

constexpr std::int64_t kBatch = 16;
constexpr std::int64_t kDistinctBatches = 4;  // pool of 64 images, cycled
constexpr int kSetups = 5;
constexpr std::int64_t kBitwiseCheckImages = 4;  // per-sample forwards

struct Loop {
  std::vector<double> batch_ms;
  std::int64_t images = 0;
  double seconds = 0;
};

/// Closed loop of forward_batch calls over the image pool until `seconds`
/// pass; every call is one operation. `first_out` keeps batch 0's logits.
Loop closed_loop(Run& run, runtime::Engine& engine, const std::vector<Tensor>& batches,
                 double seconds, Tensor* first_out) {
  Loop loop;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; s_between(start, Clock::now()) < seconds; ++i) {
    const Tensor& batch = batches[i % batches.size()];
    run.attempt();
    const Clock::time_point t0 = Clock::now();
    Tensor out;
    try {
      Tracer::Scope span("engine.forward_batch", i + 1);
      out = engine.forward_batch(batch);
    } catch (const std::exception& e) {
      run.fail(std::string("forward_batch threw: ") + e.what());
      continue;
    }
    loop.batch_ms.push_back(ms_between(t0, Clock::now()));
    loop.images += kBatch;
    if (const std::string bad = verdict_finite(logits_of(out));
        !bad.empty() || out.dim(0) != kBatch) {
      run.fail("forward_batch returned a malformed batch: " + bad);
    }
    if (i == 0 && first_out) *first_out = out;
  }
  loop.seconds = s_between(start, Clock::now());
  return loop;
}

}  // namespace

void run_resnet_batch(Run& run) {
  const Options& opt = run.options();
  const data::LabeledData pool = cifar10_like(opt.seed, kBatch * kDistinctBatches);
  std::vector<Tensor> batches;
  for (std::int64_t b = 0; b < kDistinctBatches; ++b) {
    batches.push_back(slice_rows(pool.images, b * kBatch, kBatch));
  }

  // The artifact the workload serves; writing it is not part of set-up.
  const std::string path = opt.workdir + "/resnet20_d_" + std::to_string(opt.seed) + ".pcan";
  const Clock::time_point prepare_start = Clock::now();
  const std::unique_ptr<nn::Sequential> float_net = resnet20_d(opt.seed);
  const std::vector<std::int64_t> expected_searches = searches_per_layer(*float_net, "resnet20");
  runtime::save_artifact(path, runtime::make_artifact("resnet20", models::Variant::PecanD, 10,
                                                      *float_net));
  float_net->set_training(false);
  run.detail("prepare_s", s_between(prepare_start, Clock::now()));
  std::int64_t searches_per_image = 0;
  for (const std::int64_t s : expected_searches) searches_per_image += s;

  // Set-up: artifact load + Engine compile (convert_to_cam, bank placement,
  // prewarm), repeated; the last engine serves.
  runtime::EngineConfig config;
  config.path = runtime::ExecPath::Cam;
  config.cam_precision = cam::CamPrecision::Float32;
  std::vector<double> setup_s, load_s, compile_s;
  std::unique_ptr<runtime::Engine> engine;
  for (int i = 0; i < kSetups; ++i) {
    engine.reset();
    const Clock::time_point t0 = Clock::now();
    const runtime::ModelArtifact artifact = runtime::load_artifact(path);
    const Clock::time_point t1 = Clock::now();
    engine = runtime::Engine::from_artifact(artifact, config);
    const Clock::time_point t2 = Clock::now();
    load_s.push_back(s_between(t0, t1));
    compile_s.push_back(s_between(t1, t2));
    setup_s.push_back(s_between(t0, t2));
  }

  // Warm-up call, then the measured closed loop (split untraced/traced in
  // the traced run, which also times each plan step on its own).
  engine->forward_batch(batches[0]);
  const ops::OpTotals before = engine->counter()->totals();
  const runtime::EngineStats stats_before = engine->stats();
  Tensor first_out;
  const double loop_s = opt.trace ? opt.seconds * 0.35 : opt.seconds;
  const Loop loop = closed_loop(run, *engine, batches, loop_s, &first_out);
  const ops::OpTotals after = engine->counter()->totals();
  const runtime::EngineStats stats_after = engine->stats();
  const LedgerPerImage ledger = ledger_per_image(before, after, loop.images);

  // Output checks.
  const Clock::time_point checks_start = Clock::now();
  check_ledger(run, ledger, searches_per_image, "resnet-batch");
  if (!first_out.empty()) {
    check_batched_equals_single(run, *engine, batches[0], first_out, kBitwiseCheckImages,
                                "resnet-batch");
    // CAM Float32 vs the float PQ network's eval forward on the first batch.
    const Tensor reference = float_net->forward(batches[0]);
    run.check("resnet-batch CAM Float32 vs float PQ eval forward",
              verdict_cam_matches_float(logits_of(first_out), logits_of(reference)));
  } else {
    run.fail("resnet-batch: no batch completed");
  }

  run.detail("checks_s", s_between(checks_start, Clock::now()));
  const double img_per_s = loop.seconds > 0 ? static_cast<double>(loop.images) / loop.seconds : 0;
  const runtime::EngineStats stats = engine->stats();
  run.detail("batches", static_cast<double>(loop.batch_ms.size()));
  run.detail("tail_quantile", tail_quantile(loop.batch_ms.size()));

  if (!opt.trace) {
    run.metric("setup_s", median(setup_s), "s");
    run.metric("peak_rss_mb", peak_rss_mb(), "MB");
    run.metric("img_per_s", img_per_s, "img/s");
    run.metric("latency_p50_ms", median(loop.batch_ms), "ms");
    run.metric("latency_tail_ms", percentile(loop.batch_ms, tail_quantile(loop.batch_ms.size())),
               "ms");
    run.metric("energy_nj_per_inf", stats.energy_per_inference_nj, "nJ/inf");
    return;
  }

  // Traced run: the same loop with a span per call, then step-by-step
  // passes over the engine's own compiled network.
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(true);
  const Loop traced = closed_loop(run, *engine, batches, opt.seconds * 0.35, nullptr);
  const std::vector<const nn::Module*> steps = plan_steps(run, *engine, "resnet-batch");
  const Clock::time_point passes_start = Clock::now();
  for (std::size_t i = 0; i == 0 || s_between(passes_start, Clock::now()) < opt.seconds * 0.2;
       ++i) {
    run.attempt();
    const Tensor out = traced_plan_pass(steps, "resnet20", batches[i % batches.size()], i + 1);
    if (i == 0) {
      run.check("resnet-batch step-by-step pass == forward_batch",
                verdict_bitwise(logits_of(out), logits_of(first_out)));
    }
  }
  tracer.set_enabled(false);

  std::map<std::string, double> m;
  const double scan_bytes = scan_bytes_per_inf(engine->cam_export(), expected_searches, 4);
  plan_metrics(steps, "resnet20", *float_net, kBatch, scan_bytes, m);
  m["artifact.load_s"] = median(load_s);
  m["engine.compile_s"] = median(compile_s);
  const auto sharded = stats_after.sharded_batches - stats_before.sharded_batches;
  m["engine.shards_per_call"] =
      sharded > 0 ? static_cast<double>(stats_after.shard_executions -
                                        stats_before.shard_executions) /
                        static_cast<double>(sharded)
                  : 1.0;
  m["engine.contexts"] = static_cast<double>(stats.contexts);
  m["engine.scratch_mb"] = static_cast<double>(stats.scratch_bytes) / 1e6;
  ledger_metrics(ledger, scan_bytes, m);
  const double traced_rate =
      traced.seconds > 0 ? static_cast<double>(traced.images) / traced.seconds : 0;
  m["trace.overhead_pct"] = traced_rate > 0 ? (img_per_s / traced_rate - 1.0) * 100.0 : 0.0;
  emit_per_layer(run, m);
  tracer.dump(opt.workdir + "/spans-resnet-batch-" + std::to_string(opt.seed) + ".jsonl");
}

}  // namespace perfbench
