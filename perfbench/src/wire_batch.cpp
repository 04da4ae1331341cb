// wire-batch: LeNet5 PECAN-D deployed from a saved artifact at
// CamPrecision::Int8 behind a self-hosted NetServer on loopback. Two
// connections each keep two INFER_BATCH frames of 32 MNIST-like images in
// flight (closed loop); every reply row must be bitwise equal to the
// in-process per-sample forward of the same image.
//
// The traced run adds the single-sample open-loop Poisson traffic (a rate
// ladder over pipelined connections, latency from each request's scheduled
// send) and times every serving layer at that schedule. See README.md for
// why the Poisson figures are per-layer rather than end-to-end.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <future>
#include <map>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "models.hpp"
#include "plan.hpp"
#include "runtime/model_artifact.hpp"
#include "runtime/net_client.hpp"
#include "runtime/net_server.hpp"
#include "runtime/server.hpp"
#include "runtime/wire.hpp"
#include "trace.hpp"
#include "util/socket.hpp"

namespace perfbench {

using namespace pecan;

namespace {

const char* const kModel = "lenet5-d";
constexpr std::int64_t kBatch = 32;         // images per INFER_BATCH frame
constexpr std::int64_t kPoolImages = 64;    // two distinct batches
constexpr int kConnections = 2;             // at most nproc
constexpr int kInFlight = 2;                // INFER_BATCH frames per connection
constexpr int kSetups = 9;  // each takes milliseconds; the median needs many
// Single-sample Poisson traffic of the traced run: request latency at the
// nominal rate (>= 1000 requests), then a ladder that climbs until a rung
// misses the p99 limit.
constexpr double kNominalRate = 400;
constexpr double kNominalSeconds = 2.5;
constexpr double kLadder[] = {800, 1200, 1600, 2000, 2400, 2800, 3200, 3600};
constexpr double kRungSeconds = 1.25;
constexpr double kP99LimitMs = 50.0;   // the max_rate_rps latency limit
constexpr double kLateBoundMs = 20.0;  // loadgen.late_p99_ms validity bound

using Clients = std::vector<std::unique_ptr<runtime::NetClient>>;

/// What the wire must reproduce: in-process forward_batch of each image.
struct Expected {
  std::vector<Tensor> samples;  ///< [1,28,28]
  std::vector<Tensor> rows;     ///< [1,10]
  std::vector<Tensor> batches;  ///< [32,1,28,28]: images 0-31, 32-63
};

/// Rows [first, first + rows) of a reply equal the per-sample rows.
bool rows_match(const Tensor& reply, const Expected& expected, std::size_t first,
                std::int64_t rows) {
  if (reply.numel() != rows * 10) return false;
  for (std::int64_t r = 0; r < rows; ++r) {
    if (!verdict_bitwise({reply.data() + r * 10, 1, 10},
                         logits_of(expected.rows[first + static_cast<std::size_t>(r)]))
             .empty()) {
      return false;
    }
  }
  return true;
}

struct LoadResult {
  std::vector<double> latency_ms;       ///< requests with a bitwise-correct Ok reply
  std::vector<double> late_ms;          ///< open loop: actual send - scheduled send
  std::vector<double> tail_quarter_ms;  ///< open loop: the schedule's last quarter
  std::int64_t sent = 0;
  std::int64_t failed = 0;
  double seconds = 0;
};

void account(Run& run, const LoadResult& r, const std::string& what) {
  run.attempt(r.sent);
  if (r.failed > 0) {
    run.fail(what + ": " + std::to_string(r.failed) + " of " + std::to_string(r.sent) +
                 " requests had no bitwise-correct Ok reply",
             r.failed);
  }
}

/// The measured traffic: every connection keeps kInFlight INFER_BATCH frames
/// in flight for `seconds`, sending the next as each reply lands.
LoadResult batch_loop(Run& run, Clients& clients, const Expected& expected, double seconds) {
  struct PerConn {
    std::vector<double> latency_ms;
    std::int64_t sent = 0, failed = 0;
  };
  std::vector<PerConn> per(clients.size());
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop_at =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      PerConn& me = per[c];
      runtime::NetClient& client = *clients[c];
      std::unordered_map<std::uint64_t, std::pair<Clock::time_point, std::size_t>> pending;
      std::size_t next = c;
      const auto send_one = [&] {
        const std::size_t b = next++ % expected.batches.size();
        Tracer::Scope span("wire.send", me.sent + 1);
        const Clock::time_point t = Clock::now();
        pending[client.send_infer_batch(kModel, expected.batches[b])] = {t, b};
        ++me.sent;
      };
      try {
        for (int i = 0; i < kInFlight; ++i) send_one();
        while (!pending.empty()) {
          const runtime::NetClient::Reply reply = [&] {
            Tracer::Scope span("wire.recv");
            return client.recv();
          }();
          const Clock::time_point now = Clock::now();
          const auto it = pending.find(reply.request_id);
          if (it == pending.end()) continue;
          const bool ok = reply.status == runtime::wire::Status::Ok &&
                          rows_match(reply.tensor, expected, it->second.second * kBatch, kBatch);
          if (ok) {
            me.latency_ms.push_back(ms_between(it->second.first, now));
          } else {
            ++me.failed;
          }
          pending.erase(it);
          if (now < stop_at) send_one();
        }
      } catch (const std::exception&) {
        me.failed += static_cast<std::int64_t>(pending.size());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoadResult out;
  out.seconds = s_between(start, Clock::now());
  for (const PerConn& p : per) {
    out.latency_ms.insert(out.latency_ms.end(), p.latency_ms.begin(), p.latency_ms.end());
    out.sent += p.sent;
    out.failed += p.failed;
  }
  account(run, out, "wire-batch INFER_BATCH");
  return out;
}

struct Request {
  double offset_s = 0;     ///< scheduled send, from the session's start
  std::size_t sample = 0;  ///< index into the image pool
};

/// Poisson arrivals at `rate` for `seconds`; samples drawn uniformly.
std::vector<Request> poisson_schedule(double rate, double seconds, std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::exponential_distribution<double> gap(rate);
  std::uniform_int_distribution<std::size_t> pick(0, kPoolImages - 1);
  std::vector<Request> out;
  for (double t = gap(gen); t < seconds; t += gap(gen)) out.push_back({t, pick(gen)});
  return out;
}

/// One open-loop session of single-sample INFER frames: one sender follows
/// the schedule (request i on connection i % C), one receiver per
/// connection matches replies by id.
LoadResult open_loop(Run& run, Clients& clients, const Expected& expected,
                     const std::vector<Request>& schedule) {
  const std::size_t conns = clients.size();
  struct Pending {
    Clock::time_point scheduled;
    std::size_t index;
  };
  struct Conn {
    std::mutex mutex;
    std::unordered_map<std::uint64_t, Pending> pending;
    std::atomic<std::int64_t> expected{0};
  };
  std::vector<Conn> state(conns);
  for (std::size_t i = 0; i < schedule.size(); ++i) state[i % conns].expected.fetch_add(1);
  std::vector<std::uint8_t> ok(schedule.size(), 0);
  std::vector<double> latency(schedule.size(), 0.0);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);

  std::vector<std::thread> receivers;
  for (std::size_t c = 0; c < conns; ++c) {
    receivers.emplace_back([&, c] {
      Conn& conn = state[c];
      for (std::int64_t got = 0; got < conn.expected.load(); ++got) {
        runtime::NetClient::Reply reply;
        try {
          reply = clients[c]->recv();
        } catch (const std::exception&) {
          return;  // connection lost: what is still pending on it fails
        }
        const Clock::time_point now = Clock::now();
        Pending p;
        {
          std::lock_guard<std::mutex> lock(conn.mutex);
          const auto it = conn.pending.find(reply.request_id);
          if (it == conn.pending.end()) continue;
          p = it->second;
          conn.pending.erase(it);
        }
        Tracer::instance().record(
            "loadgen.request",
            std::chrono::duration_cast<std::chrono::nanoseconds>(p.scheduled.time_since_epoch())
                .count(),
            Tracer::now_ns(), p.index + 1);
        ok[p.index] = reply.status == runtime::wire::Status::Ok &&
                      rows_match(reply.tensor, expected, schedule[p.index].sample, 1);
        latency[p.index] = ms_between(p.scheduled, now);
      }
    });
  }

  LoadResult out;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(schedule[i].offset_s));
    std::this_thread::sleep_until(due);
    Conn& conn = state[i % conns];
    try {
      Tracer::Scope span("wire.send", i + 1);
      std::lock_guard<std::mutex> lock(conn.mutex);
      const std::uint64_t id =
          clients[i % conns]->send_infer(kModel, expected.samples[schedule[i].sample]);
      conn.pending[id] = {due, i};
    } catch (const std::exception&) {
      conn.expected.fetch_sub(1);
    }
    out.late_ms.push_back(ms_between(due, Clock::now()));
  }
  for (std::thread& t : receivers) t.join();

  out.sent = static_cast<std::int64_t>(schedule.size());
  const std::size_t quarter_from = schedule.size() * 3 / 4;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (!ok[i]) {
      ++out.failed;
      continue;
    }
    out.latency_ms.push_back(latency[i]);
    if (i >= quarter_from) out.tail_quarter_ms.push_back(latency[i]);
  }
  account(run, out, "wire-batch Poisson INFER");
  return out;
}

RungResult to_rung(double rate, const LoadResult& r) {
  RungResult rung;
  rung.rate = rate;
  rung.sent = r.sent;
  rung.failed = r.failed;
  rung.p99_ms = p99_with_misses(r.latency_ms, r.failed);
  rung.backlog = median(r.tail_quarter_ms) > kP99LimitMs;
  return rung;
}

/// The same schedule in-process through Server::submit (no wire): latency
/// from scheduled submit to the future being ready.
std::vector<double> submit_loop(Run& run, runtime::Server& server, const Expected& expected,
                                const std::vector<Request>& schedule) {
  std::vector<std::future<Tensor>> futures(schedule.size());
  std::vector<Clock::time_point> due(schedule.size());
  std::vector<double> latency;
  std::atomic<std::size_t> submitted{0};
  std::atomic<std::int64_t> failed{0};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  std::thread waiter([&] {
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      while (submitted.load(std::memory_order_acquire) <= i) std::this_thread::yield();
      try {
        futures[i].wait();
        latency.push_back(ms_between(due[i], Clock::now()));
        if (!rows_match(futures[i].get(), expected, schedule[i].sample, 1)) failed.fetch_add(1);
      } catch (const std::exception&) {
        failed.fetch_add(1);
      }
    }
  });
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    due[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(schedule[i].offset_s));
    std::this_thread::sleep_until(due[i]);
    try {
      futures[i] = server.submit(kModel, expected.samples[schedule[i].sample]);
    } catch (const std::exception&) {
      std::promise<Tensor> broken;
      broken.set_exception(std::current_exception());
      futures[i] = broken.get_future();
    }
    submitted.store(i + 1, std::memory_order_release);
  }
  waiter.join();
  LoadResult r;
  r.sent = static_cast<std::int64_t>(schedule.size());
  r.failed = failed.load();
  account(run, r, "wire-batch Server::submit");
  return latency;
}

struct Serving {
  std::unique_ptr<runtime::Server> server;
  std::unique_ptr<runtime::NetServer> net;
  double deploy_s = 0;
};

/// Set-up: deploy the artifact file and start the wire front end.
Serving start_serving(const std::string& path) {
  Serving s;
  s.server = std::make_unique<runtime::Server>();
  runtime::EngineConfig config;
  config.path = runtime::ExecPath::Cam;  // precision comes from the artifact (Int8)
  config.max_batch = 8;
  config.batch_wait = std::chrono::microseconds(200);
  const Clock::time_point t0 = Clock::now();
  s.server->deploy_file(kModel, path, config);
  s.deploy_s = s_between(t0, Clock::now());
  runtime::NetServerConfig net_config;
  net_config.executors = available_cpus();
  s.net = std::make_unique<runtime::NetServer>(*s.server, net_config);
  s.net->start();
  if (!util::wait_port_ready(net_config.host, s.net->port(), 5000)) {
    throw std::runtime_error("wire-batch: NetServer did not come up");
  }
  return s;
}

void stop_serving(Serving& s) {
  if (s.net) s.net->stop();
  if (s.server) s.server->shutdown();
  s.net.reset();
  s.server.reset();
}

/// Client-side frame encode, and Decoder time per reply, each on its own.
void wire_codec_metrics(const Expected& expected, std::map<std::string, double>& m) {
  std::vector<double> encode_us, decode_us;
  std::size_t request_bytes = 0, reply_bytes = 0;
  runtime::wire::Decoder decoder;
  for (std::size_t i = 0; i < 2000; ++i) {
    const std::size_t k = i % expected.samples.size();
    std::vector<std::uint8_t> frame;
    std::int64_t t0 = Tracer::now_ns();
    {
      Tracer::Scope span("wire.encode", i + 1);
      runtime::wire::encode_tensor_frame(frame, runtime::wire::Opcode::Infer,
                                         runtime::wire::Status::Ok, i + 1, kModel,
                                         expected.samples[k]);
    }
    encode_us.push_back(static_cast<double>(Tracer::now_ns() - t0) / 1e3);
    request_bytes = frame.size();

    std::vector<std::uint8_t> reply;
    const Tensor row = expected.rows[k].reshaped({expected.rows[k].numel()});
    runtime::wire::encode_tensor_frame(reply, runtime::wire::Opcode::Infer,
                                       runtime::wire::Status::Ok, i + 1, kModel, row);
    reply_bytes = reply.size();
    t0 = Tracer::now_ns();
    {
      Tracer::Scope span("wire.decode", i + 1);
      decoder.feed(reply.data(), reply.size());
      runtime::wire::FrameView view;
      if (decoder.next(view) != runtime::wire::Decoder::Result::Frame ||
          runtime::wire::decode_tensor(view.payload, view.payload_len).numel() != row.numel()) {
        throw std::runtime_error("wire-batch: a reply frame did not decode");
      }
    }
    decode_us.push_back(static_cast<double>(Tracer::now_ns() - t0) / 1e3);
  }
  m["wire.encode_us"] = median(encode_us);
  m["wire.decode_us"] = median(decode_us);
  m["wire.request_bytes"] = static_cast<double>(request_bytes);
  m["wire.reply_bytes"] = static_cast<double>(reply_bytes);
}

/// The traced run's single-sample Poisson traffic and per-layer timings.
void trace_layers(Run& run, Serving& serving, Clients& clients, const Expected& expected,
                  const nn::Sequential& float_net, double scan_bytes,
                  std::map<std::string, double>& m) {
  runtime::Server& server = *serving.server;
  const std::shared_ptr<runtime::Engine> engine = server.lease(kModel);
  const std::uint64_t seed = run.options().seed;

  // Nominal rate: wire, then the same schedule in-process.
  const std::vector<Request> nominal_schedule =
      poisson_schedule(kNominalRate, kNominalSeconds, seed * 31);
  const runtime::NetServerStats net_before = serving.net->stats();
  const runtime::EngineStats engine_before = engine->stats();
  const LoadResult nominal = open_loop(run, clients, expected, nominal_schedule);
  const runtime::NetServerStats net_after = serving.net->stats();
  const runtime::EngineStats engine_after = engine->stats();
  const double late_p99 = percentile(nominal.late_ms, 0.99);
  if (late_p99 > kLateBoundMs) {
    throw std::runtime_error("run invalid: the load generator sent " + std::to_string(late_p99) +
                             " ms late at p99 (bound " + std::to_string(kLateBoundMs) + " ms)");
  }
  m["loadgen.late_p99_ms"] = late_p99;
  m["loadgen.request_p50_ms"] = median(nominal.latency_ms);
  m["loadgen.request_p99_ms"] = p99_with_misses(nominal.latency_ms, nominal.failed);
  m["net_server.frames"] = static_cast<double>(net_after.frames - net_before.frames);
  m["net_server.bytes_in"] = static_cast<double>(net_after.bytes_in - net_before.bytes_in);
  m["net_server.bytes_out"] = static_cast<double>(net_after.bytes_out - net_before.bytes_out);
  const auto batches = engine_after.batches - engine_before.batches;
  m["engine.avg_microbatch"] =
      batches > 0 ? static_cast<double>(engine_after.batched_samples -
                                        engine_before.batched_samples) /
                        static_cast<double>(batches)
                  : 0.0;
  const std::vector<double> submit_ms = submit_loop(run, server, expected, nominal_schedule);
  m["server.submit_p50_ms"] = median(submit_ms);
  m["server.submit_p99_ms"] = percentile(submit_ms, 0.99);
  m["net_server.self_p50_ms"] = m["loadgen.request_p50_ms"] - m["server.submit_p50_ms"];

  // The ladder climbs from the nominal rate and stops at the first miss.
  std::vector<RungResult> rungs = {to_rung(kNominalRate, nominal)};
  for (const double rate : kLadder) {
    const RungResult& last = rungs.back();
    if (last.backlog || !(last.p99_ms < kP99LimitMs)) break;
    const auto schedule =
        poisson_schedule(rate, kRungSeconds, seed * 37 + static_cast<std::uint64_t>(rate));
    rungs.push_back(to_rung(rate, open_loop(run, clients, expected, schedule)));
  }
  m["loadgen.max_rate_rps"] = max_sustained_rate(rungs, kP99LimitMs);

  // One sample through forward_batch, and step by step through the plan.
  std::vector<double> exec_ms;
  for (std::size_t i = 0; i < 500; ++i) {
    const Tensor one = expected.samples[i % expected.samples.size()].reshaped({1, 1, 28, 28});
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Scope span("engine.forward_batch", i + 1);
      engine->forward_batch(one);
    }
    exec_ms.push_back(ms_between(t0, Clock::now()));
  }
  run.attempt(500);
  m["engine.exec_p50_ms"] = median(exec_ms);
  m["engine.wait_p50_ms"] = m["server.submit_p50_ms"] - m["engine.exec_p50_ms"];

  const std::vector<const nn::Module*> steps = plan_steps(run, *engine, "wire-batch");
  for (std::size_t i = 0; i < 500; ++i) {
    const std::size_t k = i % expected.samples.size();
    const Tensor out =
        traced_plan_pass(steps, "lenet5", expected.samples[k].reshaped({1, 1, 28, 28}), i + 1);
    if (i < expected.samples.size()) {
      run.check("wire-batch step-by-step pass == forward_batch",
                verdict_bitwise(logits_of(out), logits_of(expected.rows[k])));
    }
  }
  wire_codec_metrics(expected, m);
  plan_metrics(steps, "lenet5", float_net, 1, scan_bytes, m);
  const runtime::EngineStats es = engine->stats();
  m["engine.contexts"] = static_cast<double>(es.contexts);
  m["engine.scratch_mb"] = static_cast<double>(es.scratch_bytes) / 1e6;
}

}  // namespace

void run_wire_batch(Run& run) {
  const Options& opt = run.options();
  const data::LabeledData pool = mnist_like(opt.seed, kPoolImages);

  // The deployed artifact; writing it is not part of set-up.
  const std::string path = opt.workdir + "/lenet5_d_int8_" + std::to_string(opt.seed) + ".pcan";
  const std::unique_ptr<nn::Sequential> float_net = lenet5_d(opt.seed);
  const std::vector<std::int64_t> expected_searches = searches_per_layer(*float_net, "lenet5");
  runtime::save_artifact(path, runtime::make_artifact("lenet5", models::Variant::PecanD, 10,
                                                      *float_net, cam::CamPrecision::Int8));
  float_net->set_training(false);
  float_net->forward(slice_rows(pool.images, 0, 1));  // layers learn their input shapes
  std::int64_t searches_per_image = 0;
  for (const std::int64_t s : expected_searches) searches_per_image += s;

  // Set-up: deploy_file + NetServer start, repeated; the last one serves.
  std::vector<double> setup_s, deploy_s, load_s;
  Serving serving;
  for (int i = 0; i < kSetups; ++i) {
    stop_serving(serving);
    const Clock::time_point t0 = Clock::now();
    serving = start_serving(path);
    setup_s.push_back(s_between(t0, Clock::now()));
    deploy_s.push_back(serving.deploy_s);
    const Clock::time_point l0 = Clock::now();
    runtime::load_artifact(path);
    load_s.push_back(s_between(l0, Clock::now()));
  }
  const std::shared_ptr<runtime::Engine> engine = serving.server->lease(kModel);
  run.check("wire-batch serves at Int8", engine->cam_precision() == cam::CamPrecision::Int8
                                             ? ""
                                             : "the artifact's Int8 was not adopted");

  Expected expected;
  for (std::int64_t i = 0; i < kPoolImages; ++i) {
    const Tensor one = slice_rows(pool.images, i, 1);
    expected.rows.push_back(engine->forward_batch(one));
    expected.samples.push_back(one.reshaped({1, 28, 28}));
  }
  for (std::int64_t b = 0; b < kPoolImages / kBatch; ++b) {
    expected.batches.push_back(slice_rows(pool.images, b * kBatch, kBatch));
  }
  Clients clients;
  for (int c = 0; c < std::min(kConnections, available_cpus()); ++c) {
    clients.push_back(std::make_unique<runtime::NetClient>("127.0.0.1", serving.net->port()));
  }

  batch_loop(run, clients, expected, 0.5);  // warm-up
  const ops::OpTotals before = engine->counter()->totals();
  const double loop_s = opt.trace ? opt.seconds * 0.3 : opt.seconds;
  const LoadResult measured = batch_loop(run, clients, expected, loop_s);
  const ops::OpTotals after = engine->counter()->totals();
  const auto images = static_cast<std::int64_t>(measured.latency_ms.size()) * kBatch;
  const LedgerPerImage ledger = ledger_per_image(before, after, images);
  check_ledger(run, ledger, searches_per_image, "wire-batch");
  const double img_per_s = measured.seconds > 0 ? static_cast<double>(images) / measured.seconds : 0;
  run.detail("requests", static_cast<double>(measured.latency_ms.size()));
  run.detail("tail_quantile", tail_quantile(measured.latency_ms.size()));

  if (!opt.trace) {
    run.metric("setup_s", median(setup_s), "s");
    run.metric("peak_rss_mb", peak_rss_mb(), "MB");
    run.metric("img_per_s", img_per_s, "img/s");
    run.metric("latency_p50_ms", median(measured.latency_ms), "ms");
    run.metric("latency_tail_ms",
               percentile(measured.latency_ms, tail_quantile(measured.latency_ms.size())), "ms");
    run.metric("energy_nj_per_inf", serving.server->stats(kModel).engine.energy_per_inference_nj,
               "nJ/inf");
    clients.clear();
    stop_serving(serving);
    return;
  }

  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(true);
  const LoadResult traced = batch_loop(run, clients, expected, opt.seconds * 0.3);
  std::map<std::string, double> m;
  const double scan_bytes = scan_bytes_per_inf(engine->cam_export(), expected_searches, 1);
  trace_layers(run, serving, clients, expected, *float_net, scan_bytes, m);
  tracer.set_enabled(false);

  m["server.deploy_s"] = median(deploy_s);
  m["artifact.load_s"] = median(load_s);
  ledger_metrics(ledger, scan_bytes, m);
  const double traced_rate =
      traced.seconds > 0 ? static_cast<double>(traced.latency_ms.size() * kBatch) / traced.seconds
                         : 0;
  m["trace.overhead_pct"] = traced_rate > 0 ? (img_per_s / traced_rate - 1.0) * 100.0 : 0.0;
  emit_per_layer(run, m);
  tracer.dump(opt.workdir + "/spans-wire-batch-" + std::to_string(opt.seed) + ".jsonl");
  clients.clear();
  stop_serving(serving);
}

}  // namespace perfbench
