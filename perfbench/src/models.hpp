// Seeded inputs and models of the benchmark, and the closed forms its output
// checks compare the program's counters against.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cam/convert.hpp"
#include "data/dataset.hpp"
#include "data/synthetic.hpp"
#include "nn/module.hpp"

namespace perfbench {

/// MNIST-like [n,1,28,28] / CIFAR-10-like [n,3,32,32] images from the
/// in-repo synthetic generators, seeded from the workload seed.
pecan::data::LabeledData mnist_like(std::uint64_t seed, std::int64_t n);
pecan::data::LabeledData cifar10_like(std::uint64_t seed, std::int64_t n);
/// Disjoint MNIST-like train and test sets drawn from the same templates.
pecan::data::TrainTestSplit mnist_split(std::uint64_t seed, std::int64_t train_n,
                                        std::int64_t test_n);

/// LeNet5 / ResNet20 PECAN-D with k-means-calibrated codebooks (Table A2 /
/// A3 presets), weights drawn from `seed`.
std::unique_ptr<pecan::nn::Sequential> lenet5_d(std::uint64_t seed);
std::unique_ptr<pecan::nn::Sequential> resnet20_d(std::uint64_t seed);

/// Per PECAN layer, in network order: CAM searches one image issues
/// (groups x output positions), from the layer's own (cin, k, stride, pad,
/// d) and the architecture's input sizes. `model` is "lenet5" or "resnet20".
std::vector<std::int64_t> searches_per_layer(pecan::nn::Module& float_net,
                                             const std::string& model);

/// Stored-word bytes one image scans: per CAM layer, searches x p x d x
/// bytes per stored component (4 at Float32, 1 at Int8).
double scan_bytes_per_inf(const pecan::cam::CamNetworkExport& exported,
                          const std::vector<std::int64_t>& searches, int bytes_per_component);

}  // namespace perfbench
