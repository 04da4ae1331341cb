#include "plan.hpp"

#include <algorithm>
#include <cstring>

#include "trace.hpp"

namespace perfbench {

using namespace pecan;

namespace {

void flatten(const nn::Module& module, std::vector<const nn::Module*>& out) {
  if (const auto* seq = dynamic_cast<const nn::Sequential*>(&module)) {
    for (std::size_t i = 0; i < seq->size(); ++i) flatten(seq->layer(i), out);
    return;
  }
  out.push_back(&module);
}

std::string step_span(const std::string& model, const nn::Module& step) {
  return "plan." + model + "." + step.name();
}

}  // namespace

std::vector<const nn::Module*> plan_steps(Run& run, runtime::Engine& engine,
                                          const std::string& label) {
  std::vector<const nn::Module*> steps;
  flatten(*engine.cam_export().net, steps);
  std::vector<std::string> names;
  for (const nn::Module* s : steps) names.push_back(s->name());
  run.check(label + " traced steps",
            names == engine.plan_names() ? "" : "differ from Engine::plan_names()");
  return steps;
}

Tensor traced_plan_pass(const std::vector<const nn::Module*>& steps, const std::string& model,
                        const Tensor& batch, std::uint64_t request) {
  nn::InferContext ctx;
  Tracer::Scope whole("plan.forward", request);
  Tensor x = batch;
  for (const nn::Module* step : steps) {
    const std::string name = step_span(model, *step);
    Tracer::Scope span(name.c_str(), request);
    x = step->infer(x, ctx);
  }
  return x;
}

void plan_metrics(const std::vector<const nn::Module*>& steps, const std::string& model,
                  const nn::Sequential& float_net, std::int64_t images_per_pass,
                  double scan_bytes_per_inf, std::map<std::string, double>& out) {
  std::map<std::string, ops::OpCount> analytic;
  for (std::size_t i = 0; i < float_net.size(); ++i) {
    analytic[float_net.layer(i).name()] = float_net.layer(i).inference_ops();
  }
  const auto self = Tracer::instance().self_ms_by_name();
  double cam_ms_per_image = 0;
  for (const nn::Module* step : steps) {
    const std::string name = step_span(model, *step);
    const auto it = self.find(name);
    const double ms = it == self.end() ? 0.0
                                       : median(it->second) / static_cast<double>(images_per_pass);
    std::string layer = step->name();
    if (layer.size() > 4 && layer.compare(layer.size() - 4, 4, ".cam") == 0) {
      layer.resize(layer.size() - 4);
    }
    const ops::OpCount ops = analytic.count(layer) ? analytic[layer] : ops::OpCount{};
    out[name + ".ms"] = ms;
    out[name + ".analytic_ops"] = static_cast<double>(ops.adds + ops.muls);
    if (ops.adds + ops.muls > 0) cam_ms_per_image += ms;
  }
  if (scan_bytes_per_inf > 0 && cam_ms_per_image > 0) {
    out["cam.scan_gb_per_s"] = scan_bytes_per_inf / (cam_ms_per_image * 1e-3) / 1e9;
  }
}

LedgerPerImage ledger_per_image(const ops::OpTotals& before, const ops::OpTotals& after,
                                std::int64_t images) {
  LedgerPerImage l;
  if (images <= 0) return l;
  const auto n = static_cast<double>(images);
  l.searches = static_cast<double>(after.cam_searches - before.cam_searches) / n;
  l.lut_reads = static_cast<double>(after.lut_reads - before.lut_reads) / n;
  l.adds = static_cast<double>((after.adds - before.adds) + (after.adds_q - before.adds_q)) / n;
  l.muls = static_cast<double>((after.muls - before.muls) + (after.muls_q - before.muls_q)) / n;
  return l;
}

void ledger_metrics(const LedgerPerImage& ledger, double scan_bytes_per_inf,
                    std::map<std::string, double>& out) {
  out["cam.searches_per_inf"] = ledger.searches;
  out["cam.lut_reads_per_inf"] = ledger.lut_reads;
  out["cam.adds_per_inf"] = ledger.adds;
  out["cam.scan_bytes_per_inf"] = scan_bytes_per_inf;
}

void check_ledger(Run& run, const LedgerPerImage& ledger, std::int64_t expected_searches,
                  const std::string& label) {
  run.check(label + " zero multiplications",
            ledger.muls == 0.0 ? "" : std::to_string(ledger.muls) + " muls per image");
  run.check(label + " CAM searches per image",
            ledger.searches == static_cast<double>(expected_searches)
                ? ""
                : std::to_string(ledger.searches) + " counted, closed form gives " +
                      std::to_string(expected_searches));
}

Tensor slice_rows(const Tensor& t, std::int64_t first, std::int64_t n) {
  Shape shape = t.shape();
  const std::int64_t row = t.numel() / shape[0];
  shape[0] = n;
  Tensor out(shape);
  std::memcpy(out.data(), t.data() + first * row, static_cast<std::size_t>(n * row) * sizeof(float));
  return out;
}

Logits logits_of(const Tensor& t) {
  if (t.ndim() != 2) return {t.data(), 0, 0};
  return {t.data(), t.dim(0), t.dim(1)};
}

void check_batched_equals_single(Run& run, runtime::Engine& engine, const Tensor& batch,
                                 const Tensor& batched_out, std::int64_t n,
                                 const std::string& label) {
  const std::int64_t classes = batched_out.dim(1);
  Tensor singles({n, classes});
  for (std::int64_t i = 0; i < n; ++i) {
    const Tensor one = engine.forward_batch(slice_rows(batch, i, 1));
    std::memcpy(singles.data() + i * classes, one.data(),
                static_cast<std::size_t>(classes) * sizeof(float));
  }
  run.check(label + " batched == per-sample",
            verdict_bitwise(logits_of(slice_rows(batched_out, 0, n)), logits_of(singles)));
}

}  // namespace perfbench
