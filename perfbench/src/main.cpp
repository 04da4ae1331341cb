// PECAN benchmark binary: one workload per process.
//
//   perfbench --workload <wire-batch|resnet-batch|train-lenet> --seed <n>
//             --seconds <s> --trace <0|1> --workdir <dir>
//   perfbench --list-metrics
//
// Prints a record line (build stamp and details) and, as the last line, the
// result: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs the per-layer ones.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    pecan::util::Args args(argc, argv);
    if (args.get_bool("list-metrics", false)) {
      for (const Metric& m : per_layer_catalog()) std::printf("%s %s\n", m.name.c_str(), m.unit.c_str());
      return 0;
    }
    Options opt;
    opt.workload = args.get("workload", "");
    opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    opt.seconds = args.get_double("seconds", 10);
    opt.trace = args.get_int("trace", 0) != 0;
    opt.workdir = args.get("workdir", ".");
    if (!(opt.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");

    pecan::util::set_log_level(pecan::util::LogLevel::Warn);
    // Serving sizes the kernel pool to the CPUs this process may use.
    // Training runs on one lane: with four, the wall time of identical
    // training rounds swung 78-196 img/s between runs on a shared VM (every
    // layer's fork/join waits on thread wake-ups), with one it holds to
    // about 3% (README, "Workloads").
    pecan::util::set_global_threads(opt.workload == "train-lenet" ? 1 : available_cpus());

    Run run(opt);
    if (opt.workload == "wire-batch") {
      run_wire_batch(run);
    } else if (opt.workload == "resnet-batch") {
      run_resnet_batch(run);
    } else if (opt.workload == "train-lenet") {
      run_train_lenet(run);
    } else {
      throw std::invalid_argument("unknown --workload '" + opt.workload + "'");
    }
    if (run.attempted() < 1) throw std::runtime_error("no operation was attempted");
    std::cout << record_json(run, make_stamp()) << "\n" << result_json(run) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
