// The per-layer metric catalog: every name a traced run prints, in the order
// BENCHMARK.json lists them.
#include <map>
#include <stdexcept>

#include "common.hpp"

namespace perfbench {

namespace {

// Engine::plan_names() of the two served networks (CAM exports; ResNet20's
// BatchNorms fold into the preceding CAM layer's tables).
const char* const kLenetSteps[] = {"conv1.cam", "relu1", "pool1",   "conv2.cam",
                                   "relu2",     "pool2", "flatten", "fc1.cam",
                                   "relu3",     "fc2.cam", "relu4", "fc3.cam"};
const char* const kResnetSteps[] = {
    "conv1.cam",     "relu1",         "stage1.block1", "stage1.block2", "stage1.block3",
    "stage2.block1", "stage2.block2", "stage2.block3", "stage3.block1", "stage3.block2",
    "stage3.block3", "gap",           "fc.cam"};
// Top-level layers of the trained LeNet5 Sequential.
const char* const kLenetLayers[] = {"conv1", "relu1", "pool1", "conv2", "relu2",  "pool2",
                                    "flatten", "fc1", "relu3", "fc2",   "relu4", "fc3"};

}  // namespace

std::vector<Metric> per_layer_catalog() {
  std::vector<Metric> c = {
      {"wire.encode_us", 0, "us"},
      {"wire.decode_us", 0, "us"},
      {"wire.request_bytes", 0, "B"},
      {"wire.reply_bytes", 0, "B"},
      {"loadgen.request_p50_ms", 0, "ms"},
      {"loadgen.request_p99_ms", 0, "ms"},
      {"loadgen.max_rate_rps", 0, "req/s"},
      {"loadgen.late_p99_ms", 0, "ms"},
      {"net_server.frames", 0, "count"},
      {"net_server.bytes_in", 0, "B"},
      {"net_server.bytes_out", 0, "B"},
      {"net_server.self_p50_ms", 0, "ms"},
      {"server.submit_p50_ms", 0, "ms"},
      {"server.submit_p99_ms", 0, "ms"},
      {"server.deploy_s", 0, "s"},
      {"artifact.load_s", 0, "s"},
      {"engine.compile_s", 0, "s"},
      {"engine.avg_microbatch", 0, "count"},
      {"engine.exec_p50_ms", 0, "ms"},
      {"engine.wait_p50_ms", 0, "ms"},
      {"engine.shards_per_call", 0, "count"},
      {"engine.contexts", 0, "count"},
      {"engine.scratch_mb", 0, "MB"},
  };
  for (const char* step : kLenetSteps) {
    c.push_back({std::string("plan.lenet5.") + step + ".ms", 0, "ms"});
    c.push_back({std::string("plan.lenet5.") + step + ".analytic_ops", 0, "count"});
  }
  for (const char* step : kResnetSteps) {
    c.push_back({std::string("plan.resnet20.") + step + ".ms", 0, "ms"});
    c.push_back({std::string("plan.resnet20.") + step + ".analytic_ops", 0, "count"});
  }
  for (const Metric& m : std::vector<Metric>{{"cam.searches_per_inf", 0, "count"},
                                             {"cam.lut_reads_per_inf", 0, "count"},
                                             {"cam.adds_per_inf", 0, "count"},
                                             {"cam.scan_bytes_per_inf", 0, "B"},
                                             {"cam.scan_gb_per_s", 0, "GB/s"},
                                             {"train.forward_ms", 0, "ms"},
                                             {"train.backward_ms", 0, "ms"},
                                             {"train.optimizer_ms", 0, "ms"}}) {
    c.push_back(m);
  }
  for (const char* layer : kLenetLayers) {
    c.push_back({std::string("train.") + layer + ".fwd_ms", 0, "ms"});
    c.push_back({std::string("train.") + layer + ".bwd_ms", 0, "ms"});
  }
  c.push_back({"train.calibrate_s", 0, "s"});
  c.push_back({"export.convert_s", 0, "s"});
  c.push_back({"trace.overhead_pct", 0, "%"});
  return c;
}

void emit_per_layer(Run& run, const std::map<std::string, double>& measured) {
  std::vector<Metric> catalog = per_layer_catalog();
  std::map<std::string, bool> known;
  for (const Metric& m : catalog) known[m.name] = true;
  for (const auto& [name, value] : measured) {
    if (!known.count(name)) throw std::logic_error("per-layer metric not in the catalog: " + name);
  }
  for (Metric& m : catalog) {
    const auto it = measured.find(m.name);
    run.metric(m.name, it == measured.end() ? 0.0 : it->second, m.unit);
  }
}

}  // namespace perfbench
