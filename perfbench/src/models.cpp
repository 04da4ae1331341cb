#include "models.hpp"

#include <stdexcept>

#include "core/introspect.hpp"
#include "data/synthetic.hpp"
#include "models/lenet.hpp"
#include "models/resnet.hpp"
#include "tensor/rng.hpp"

namespace perfbench {

using namespace pecan;

namespace {

// Distinct streams per use of the workload seed.
constexpr std::uint64_t kDataStream = 0x9E3779B97F4A7C15ull;
constexpr std::uint64_t kWeightStream = 0xD1B54A32D192ED03ull;
constexpr std::uint64_t kKmeansStream = 0x8CB92BA72F3D8DD7ull;

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + stream;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void calibrate(nn::Sequential& net, const Tensor& images, std::uint64_t seed) {
  Rng km(mix(seed, kKmeansStream));
  pq::kmeans_calibrate(net, images, 5, km);
}

}  // namespace

data::LabeledData mnist_like(std::uint64_t seed, std::int64_t n) {
  data::SyntheticSpec spec = data::mnist_like_spec();
  spec.seed = mix(seed, kDataStream);
  return data::generate(spec, n);
}

data::TrainTestSplit mnist_split(std::uint64_t seed, std::int64_t train_n, std::int64_t test_n) {
  data::SyntheticSpec spec = data::mnist_like_spec();
  spec.seed = mix(seed, kDataStream);
  return data::generate_split(spec, train_n, test_n);
}

data::LabeledData cifar10_like(std::uint64_t seed, std::int64_t n) {
  data::SyntheticSpec spec = data::cifar10_like_spec();
  spec.seed = mix(seed, kDataStream);
  return data::generate(spec, n);
}

std::unique_ptr<nn::Sequential> lenet5_d(std::uint64_t seed) {
  Rng rng(mix(seed, kWeightStream));
  auto net = models::make_lenet5(models::Variant::PecanD, rng);
  calibrate(*net, mnist_like(seed, 48).images, seed);
  return net;
}

std::unique_ptr<nn::Sequential> resnet20_d(std::uint64_t seed) {
  Rng rng(mix(seed, kWeightStream));
  auto net = models::make_resnet20(models::Variant::PecanD, 10, rng);
  // Two images already give each stage-1 codebook ~32k subvectors; more
  // only lengthens the run's preparation.
  calibrate(*net, cifar10_like(seed, 2).images, seed);
  return net;
}

std::vector<std::int64_t> searches_per_layer(nn::Module& float_net, const std::string& model) {
  // Input side length of every PECAN layer, in network order (FC layers run
  // on a 1x1 "image").
  std::vector<std::int64_t> sides;
  if (model == "lenet5") {
    sides = {28, 13, 1, 1, 1};  // conv1 28x28 -> 26 -> pool 13; conv2 -> 11 -> pool 5 -> fc
  } else if (model == "resnet20") {
    sides = {32};                                                 // conv1
    for (int i = 0; i < 6; ++i) sides.push_back(32);              // stage 1: 3 blocks x 2 convs
    for (const std::int64_t s : {32, 16, 16, 16, 16, 16}) sides.push_back(s);  // stage 2
    for (const std::int64_t s : {16, 8, 8, 8, 8, 8}) sides.push_back(s);       // stage 3
    sides.push_back(1);                                           // fc
  } else {
    throw std::invalid_argument("searches_per_layer: unknown model " + model);
  }
  const std::vector<pq::PecanConv2d*> layers = pq::collect_pecan_layers(float_net);
  if (layers.size() != sides.size()) {
    throw std::runtime_error("searches_per_layer: " + model + " has " +
                             std::to_string(layers.size()) + " PECAN layers, expected " +
                             std::to_string(sides.size()));
  }
  std::vector<std::int64_t> out;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const pq::PecanConv2d& l = *layers[i];
    const std::int64_t k = l.kernel();
    const std::int64_t side = (sides[i] + 2 * l.pad() - k) / l.stride() + 1;
    const std::int64_t groups = l.cin() * k * k / l.config().d;
    out.push_back(groups * side * side);
  }
  return out;
}

double scan_bytes_per_inf(const cam::CamNetworkExport& exported,
                          const std::vector<std::int64_t>& searches, int bytes_per_component) {
  if (exported.cam_layers.size() != searches.size()) {
    throw std::runtime_error("scan_bytes_per_inf: CAM layer count mismatch");
  }
  double bytes = 0;
  for (std::size_t i = 0; i < searches.size(); ++i) {
    const cam::CamConv2d& layer = *exported.cam_layers[i];
    // Every group's array has the same (p, d); one search scans all p words.
    const cam::CamArray& array = layer.array(0);
    const double per_group_search =
        static_cast<double>(array.word_count() * array.word_dim() * bytes_per_component);
    bytes += static_cast<double>(searches[i]) * per_group_search;
  }
  return bytes;
}

}  // namespace perfbench
