// train-lenet: LeNet5 PECAN-D trained end to end on MNIST-like data —
// k-means calibration, then a fixed schedule of Adam steps at batch 32 —
// then exported to CAM and evaluated at Float32 and Int8. A round is the
// whole schedule from the same seed, so every round must reproduce the
// first one's losses bit for bit. See README.md.
#include <cmath>
#include <cstring>
#include <map>
#include <numeric>

#include "cam/convert.hpp"
#include "common.hpp"
#include "models.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "ops/energy_model.hpp"
#include "plan.hpp"
#include "tensor/rng.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace pecan;

namespace {

constexpr std::int64_t kTrainImages = 1024;
constexpr std::int64_t kTestImages = 1000;
constexpr std::int64_t kBatch = 32;
constexpr std::int64_t kEpochs = 2;  // 32 steps per epoch
constexpr std::int64_t kSteps = kEpochs * kTrainImages / kBatch;
constexpr double kLearningRate = 5e-3;
constexpr int kMinSetups = 3;
// Output-check thresholds (README, "Output checks").
// 76.6-99.6% was measured over ten seeds; chance is 10%.
constexpr double kAccuracyFloorPct = 50.0;
// The last epoch's mean loss must be under this share of the first's; over
// ten seeds it ended at 0.19-0.53 of it (ln 10 = 2.30 is the untrained loss).
constexpr double kLossFallShare = 0.75;

struct Round {
  std::vector<float> losses;
  std::vector<double> step_ms;
  double train_s = 0;
  double calibrate_s = 0;
  double convert_s = 0;
  double energy_nj = 0;
  double acc_f32 = 0, acc_i8 = 0;
  double first_loss = 0, last_loss = 0;
};

struct Inputs {
  data::TrainTestSplit split;
  std::unique_ptr<nn::Sequential> net;
};

/// Set-up: data generation, model build and k-means calibration.
Inputs set_up(std::uint64_t seed, double& calibrate_s) {
  Tracer::Scope span("train.setup");
  Inputs in;
  in.split = mnist_split(seed, kTrainImages, kTestImages);
  const Clock::time_point t0 = Clock::now();
  {
    Tracer::Scope cal("train.calibrate");
    in.net = lenet5_d(seed);
  }
  calibrate_s = s_between(t0, Clock::now());
  return in;
}

Tensor eval_forward(nn::Module& net, const Tensor& images) {
  net.set_training(false);
  return net.forward(images);
}

/// One round: the fixed schedule, then export and the output checks. With
/// `traced`, spans are on for set-up, export and every odd step, so the
/// even steps time the same work untraced.
Round train_round(Run& run, std::uint64_t seed, std::vector<double>& setup_s, bool traced) {
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(traced);
  Round round;
  const Clock::time_point s0 = Clock::now();
  Inputs in = set_up(seed, round.calibrate_s);
  setup_s.push_back(s_between(s0, Clock::now()));
  nn::Sequential& net = *in.net;
  const data::LabeledData& train = in.split.train;

  std::vector<std::string> fwd_names, bwd_names;
  for (std::size_t i = 0; i < net.size(); ++i) {
    fwd_names.push_back("train." + net.layer(i).name() + ".fwd");
    bwd_names.push_back("train." + net.layer(i).name() + ".bwd");
  }

  nn::Adam opt(net.parameters(), kLearningRate);
  nn::SoftmaxCrossEntropy loss_fn;
  Rng shuffle(seed ^ 0x5851F42D4C957F2Dull);
  std::vector<std::int64_t> order(static_cast<std::size_t>(train.size()));
  std::iota(order.begin(), order.end(), 0);
  std::vector<std::int64_t> labels;
  const std::int64_t steps_per_epoch = kTrainImages / kBatch;

  const Clock::time_point t_train = Clock::now();
  for (std::int64_t step = 0; step < kSteps; ++step) {
    if (step % steps_per_epoch == 0) {
      net.set_training(true);
      net.set_epoch_progress(static_cast<double>(step / steps_per_epoch) /
                             static_cast<double>(kEpochs));
      shuffle.shuffle(order);
    }
    const std::int64_t first = (step % steps_per_epoch) * kBatch;
    const Tensor batch = nn::gather_batch(train.images, order, first, first + kBatch,
                                          train.labels, labels);
    run.attempt();
    tracer.set_enabled(traced && step % 2 == 1);
    const Clock::time_point t0 = Clock::now();
    Tracer::Scope step_span("train.step", static_cast<std::uint64_t>(step + 1));
    opt.zero_grad();
    Tensor x = batch;
    {
      Tracer::Scope fwd("train.forward", static_cast<std::uint64_t>(step + 1));
      for (std::size_t i = 0; i < net.size(); ++i) {
        Tracer::Scope layer(fwd_names[i].c_str(), static_cast<std::uint64_t>(step + 1));
        x = net.layer(i).forward(x);
      }
    }
    const float loss = loss_fn.forward(x, labels);
    {
      Tracer::Scope bwd("train.backward", static_cast<std::uint64_t>(step + 1));
      Tensor g = loss_fn.backward();
      for (std::size_t i = net.size(); i-- > 0;) {
        Tracer::Scope layer(bwd_names[i].c_str(), static_cast<std::uint64_t>(step + 1));
        g = net.layer(i).backward(g);
      }
    }
    {
      Tracer::Scope o("train.optimizer", static_cast<std::uint64_t>(step + 1));
      opt.step();
    }
    round.step_ms.push_back(ms_between(t0, Clock::now()));
    round.losses.push_back(loss);
    if (!std::isfinite(loss)) {
      run.fail("train-lenet: non-finite loss at step " + std::to_string(step));
    }
  }
  round.train_s = s_between(t_train, Clock::now());
  tracer.set_enabled(traced);

  // The loss must fall over the schedule.
  const auto mean = [&](std::int64_t a, std::int64_t b) {
    return std::accumulate(round.losses.begin() + a, round.losses.begin() + b, 0.0) /
           static_cast<double>(b - a);
  };
  const double first_loss = mean(0, steps_per_epoch), last_loss = mean(kSteps - steps_per_epoch, kSteps);
  run.check("train-lenet loss falls", last_loss < kLossFallShare * first_loss
                                          ? ""
                                          : "mean loss went from " + std::to_string(first_loss) +
                                                " to only " + std::to_string(last_loss));

  // Export to CAM and evaluate at Float32 and Int8.
  const Tensor& test = in.split.test.images;
  const Tensor direct = eval_forward(net, test);
  const Clock::time_point c0 = Clock::now();
  cam::CamNetworkExport exported = [&] {
    Tracer::Scope span("export.convert");
    return cam::convert_to_cam(net);
  }();
  round.convert_s = s_between(c0, Clock::now());
  exported.counter->reset();
  const Tensor cam_f32 = eval_forward(*exported.net, test);
  const ops::OpTotals ledger = exported.counter->totals();
  round.energy_nj =
      ops::EnergyModel{}.energy(ledger).total_pj() / 1e3 / static_cast<double>(test.dim(0));
  exported.set_precision(cam::CamPrecision::Int8);
  const Tensor cam_i8 = eval_forward(*exported.net, test);

  const std::vector<std::int64_t>& y = in.split.test.labels;
  run.check("train-lenet zero multiplications",
            ledger.muls == 0 && ledger.muls_q == 0 ? "" : "the CAM ledger shows muls");
  run.check("train-lenet CAM Float32 accuracy",
            verdict_accuracy_floor(logits_of(cam_f32), y, kAccuracyFloorPct));
  // Int8 clears the same floor. Int8 within 0.5 pt of Float32 is not
  // checked: it does not hold on every seed (README, "Output checks").
  run.check("train-lenet CAM Int8 accuracy",
            verdict_accuracy_floor(logits_of(cam_i8), y, kAccuracyFloorPct));
  run.check("train-lenet CAM Float32 argmax vs eval forward",
            verdict_argmax_agree(logits_of(cam_f32), logits_of(direct)));
  const double acc_f32 = accuracy_percent(logits_of(cam_f32), y);
  const double acc_i8 = accuracy_percent(logits_of(cam_i8), y);
  round.acc_f32 = acc_f32;
  round.acc_i8 = acc_i8;
  round.first_loss = first_loss;
  round.last_loss = last_loss;
  tracer.set_enabled(false);
  return round;
}

}  // namespace

void run_train_lenet(Run& run) {
  const Options& opt = run.options();
  Tracer& tracer = Tracer::instance();
  std::vector<double> setup_s;
  // Extra set-ups so set-up time is a median even when one round fills the
  // run.
  for (int i = 0; i + 1 < kMinSetups; ++i) {
    double unused = 0;
    const Clock::time_point t0 = Clock::now();
    set_up(opt.seed, unused);
    setup_s.push_back(s_between(t0, Clock::now()));
  }

  // Whole rounds until the run's seconds pass; a traced run makes one.
  std::vector<Round> rounds;
  const Clock::time_point start = Clock::now();
  while (rounds.empty() || (!opt.trace && s_between(start, Clock::now()) < opt.seconds)) {
    rounds.push_back(train_round(run, opt.seed, setup_s, opt.trace));
    if (rounds.size() > 1) {
      const auto& a = rounds.front().losses;
      const auto& b = rounds.back().losses;
      run.check("train-lenet round " + std::to_string(rounds.size()) + " losses == round 1",
                verdict_bitwise({b.data(), 1, static_cast<std::int64_t>(b.size())},
                                {a.data(), 1, static_cast<std::int64_t>(a.size())}));
    }
  }

  std::vector<double> step_ms;
  double train_s = 0;
  std::int64_t steps = 0;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    step_ms.insert(step_ms.end(), rounds[r].step_ms.begin(), rounds[r].step_ms.end());
    train_s += rounds[r].train_s;
    steps += static_cast<std::int64_t>(rounds[r].step_ms.size());
  }
  const double img_per_s = train_s > 0 ? static_cast<double>(steps * kBatch) / train_s : 0;
  run.detail("rounds", static_cast<double>(rounds.size()));
  run.detail("cam_f32_accuracy_pct", rounds.back().acc_f32);
  run.detail("cam_int8_accuracy_pct", rounds.back().acc_i8);
  run.detail("first_epoch_loss", rounds.back().first_loss);
  run.detail("last_epoch_loss", rounds.back().last_loss);
  run.detail("steps", static_cast<double>(steps));
  run.detail("tail_quantile", tail_quantile(step_ms.size()));

  if (!opt.trace) {
    run.metric("setup_s", median(setup_s), "s");
    run.metric("peak_rss_mb", peak_rss_mb(), "MB");
    run.metric("img_per_s", img_per_s, "img/s");
    run.metric("latency_p50_ms", median(step_ms), "ms");
    run.metric("latency_tail_ms", percentile(step_ms, tail_quantile(step_ms.size())), "ms");
    run.metric("energy_nj_per_inf", rounds.back().energy_nj, "nJ/inf");
    return;
  }

  const Round& traced = rounds.back();
  const auto self = tracer.self_ms_by_name();
  const auto total = tracer.duration_ms_by_name();
  const auto med = [](const std::map<std::string, std::vector<double>>& m, const std::string& k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : median(it->second);
  };
  std::map<std::string, double> m;
  m["train.forward_ms"] = med(total, "train.forward");
  m["train.backward_ms"] = med(total, "train.backward");
  m["train.optimizer_ms"] = med(total, "train.optimizer");
  for (const auto& [name, ms] : self) {  // "train.<layer>.fwd" / ".bwd"
    const std::string tail = name.size() > 4 ? name.substr(name.size() - 4) : "";
    if (tail == ".fwd" || tail == ".bwd") m[name + "_ms"] = median(ms);
  }
  m["train.calibrate_s"] = traced.calibrate_s;
  m["export.convert_s"] = traced.convert_s;
  std::vector<double> untraced_ms, traced_ms;  // even and odd steps
  for (std::size_t s = 0; s < traced.step_ms.size(); ++s) {
    (s % 2 ? traced_ms : untraced_ms).push_back(traced.step_ms[s]);
  }
  m["trace.overhead_pct"] = (median(traced_ms) / median(untraced_ms) - 1.0) * 100.0;
  emit_per_layer(run, m);
  tracer.dump(opt.workdir + "/spans-train-lenet-" + std::to_string(opt.seed) + ".jsonl");
}

}  // namespace perfbench
