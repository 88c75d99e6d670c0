// FL benchmark driver. Builds one workload from a seed, drives it round by
// round through the public FlAlgorithm API (each round is one
// `Run(r + 1, /*eval_every=*/1)` call, timed on its own), repeats the whole
// training run until the time budget is spent, and prints one JSON record
// of raw samples on stdout. perfbench/run.py turns the record into metrics.
//
//   fl_bench --workload vision-resnet|crowd-secure|text-async --seed N
//            --seconds S --trace 0|1 --work_dir DIR
//
// --trace 1 alternates traced and untraced training runs (traced runs
// stream the program's round events to DIR and record one span per round
// call), then times each module's public entry points at the workload's
// own shapes ("probes"). Exit code 1 on a bad flag; a failed correctness
// check is reported in the record, not by the exit code.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "comm/wire.h"
#include "core/fedcross.h"
#include "data/partition.h"
#include "data/synthetic_image.h"
#include "data/synthetic_text.h"
#include "fl/evaluator.h"
#include "fl/fedavg.h"
#include "fl/plan_runner.h"
#include "obs/events.h"
#include "privacy/dp.h"
#include "privacy/masking.h"
#include "tensor/tensor_ops.h"
#include "util/flags.h"
#include "util/mem_stats.h"

namespace {

using namespace fedcross;
using SteadyClock = std::chrono::steady_clock;

const SteadyClock::time_point kStart = SteadyClock::now();

double NowS() {
  return std::chrono::duration<double>(SteadyClock::now() - kStart).count();
}

double CpuS() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto s = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return s(usage.ru_utime) + s(usage.ru_stime);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Benchmark-side spans, kept in memory and emitted with the record.
struct Span {
  std::string name;
  double start_us = 0.0;
  double dur_us = 0.0;
};
std::vector<Span> g_spans;
bool g_spans_on = false;

class SpanScope {
 public:
  explicit SpanScope(std::string name) : name_(std::move(name)), t0_(NowS()) {}
  ~SpanScope() {
    if (g_spans_on) {
      g_spans.push_back({name_, t0_ * 1e6, (NowS() - t0_) * 1e6});
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::string name_;
  double t0_;
};

// Times `fn` `reps` times (after one untimed warm-up call) and returns the
// median wall time in milliseconds. Each call is one span in trace mode.
double TimeMs(const std::string& name, int reps, const std::function<void()>& fn) {
  fn();
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    SpanScope span("probe." + name);
    double t0 = NowS();
    fn();
    ms.push_back((NowS() - t0) * 1e3);
  }
  return Median(ms);
}

// ---------------------------------------------------------------------------
// Workloads

// Every workload trains on two FL threads: on a 4-vCPU KVM guest,
// ResNet FedCross round times ranged 35% run to run at one thread and 10%
// at two.
constexpr int kFlThreads = 2;

struct Workload {
  std::string name;
  int rounds = 0;         // rounds of one training run
  // Training runs every untraced invocation completes, whatever the time
  // budget. The convergence, accuracy and traffic metrics average over
  // exactly these runs, so they depend on the seed and the code alone, not
  // on how fast the host ran. About what fits in 30 s on a quiet host.
  int stat_runs = 0;
  double target = 0.0;    // accuracy target for rounds_to_target
  double floor = 0.0;     // final-accuracy floor
  bool fedcross = false;  // FedCross (else FedAvg)
  fl::AlgorithmConfig config;
  // fl_bench saves a checkpoint inside the timed call of every
  // `checkpoint_every`-th round. (EnableAutoCheckpoint would save on every
  // call: Run(r + 1) always ends on its last round, which autosave saves.)
  int checkpoint_every = 0;
  // Dominant GEMM of local training (per-image conv GEMMs are
  // [out_channels x patch] * [patch x out_area]).
  int gemm_m = 0, gemm_n = 0, gemm_k = 0;
  bool conv = false;  // the dominant GEMM is a conv (ConvGrouped applies)
};

bool MakeWorkload(const std::string& name, Workload& w) {
  w.name = name;
  fl::AlgorithmConfig& c = w.config;
  c.train.batch_size = 20;
  c.train.momentum = 0.5f;
  if (name == "vision-resnet") {
    w.rounds = 36;
    w.stat_runs = 8;
    w.target = 0.50;
    w.floor = 0.50;
    w.fedcross = true;
    c.clients_per_round = 10;
    c.train.local_epochs = 5;
    c.train.lr = 0.03f;
    c.train.exec = fl::ExecMode::kPlan;
    w.gemm_m = 6, w.gemm_k = 6 * 9, w.gemm_n = 8 * 8;  // stage-1 3x3 conv
    w.conv = true;
  } else if (name == "crowd-secure") {
    w.rounds = 30;
    w.stat_runs = 12;
    w.target = 0.65;
    w.floor = 0.55;
    w.fedcross = false;
    c.clients_per_round = 20;
    c.train.local_epochs = 2;
    c.train.lr = 0.05f;
    c.population = fl::PopulationMode::kVirtual;
    c.codec.scheme = comm::Scheme::kInt8TopK;
    c.codec.topk_fraction = 0.10;
    c.dp.clip_norm = 1.0f;
    c.dp.noise_multiplier = 0.1f;
    c.secure_agg.enabled = true;
    c.faults.profile.dropout_prob = 0.10;
    c.state_store.max_resident = 64;
    w.gemm_m = 32, w.gemm_k = 16 * 25, w.gemm_n = 4 * 4;  // conv2 5x5
    w.conv = true;
  } else if (name == "text-async") {
    w.rounds = 16;
    w.stat_runs = 24;
    w.target = 0.65;
    w.floor = 0.60;
    w.fedcross = true;
    c.clients_per_round = 10;
    c.train.local_epochs = 5;
    c.train.lr = 0.2f;
    c.async.mode = fl::RoundMode::kAsync;
    c.async.buffer_size = 5;
    c.async.dispatch_timeout = 1.5;
    c.async.max_retries = 1;
    c.async.clock.compute_speed_min = 20.0;
    c.async.clock.compute_speed_max = 200.0;
    c.async.clock.jitter = 0.5;
    w.checkpoint_every = 5;
    w.gemm_m = 20, w.gemm_k = 24, w.gemm_n = 4 * 24;  // recurrent gate GEMM
    w.conv = false;
  } else {
    return false;
  }
  return true;
}

// The task -- corpus, client partition and initial model -- is fixed per
// workload, like a real dataset and starting checkpoint; the run seed drives
// everything a training run draws (client sampling, batch order, faults,
// DP noise, codec rounding, the virtual clock).
constexpr std::uint64_t kTaskSeed = 1;

data::FederatedDataset MakeData(const Workload& w) {
  const std::uint64_t seed = kTaskSeed;
  if (w.name == "text-async") {
    data::SyntheticSentimentOptions options;
    options.num_clients = 100;
    options.vocab_size = 90;
    options.seq_len = 10;
    options.mean_samples_per_client = 100;
    options.test_samples = 1500;
    options.polarity_skew = 0.5;
    options.seed = seed;
    return data::MakeSyntheticSentiment(options);
  }
  data::SyntheticImageOptions image;
  image.num_classes = 10;
  image.channels = 3;
  image.height = image.width = 8;
  image.test_per_class = 30;
  image.noise_stddev = 1.1f;
  image.seed = seed;
  if (w.config.population == fl::PopulationMode::kVirtual) {
    data::VirtualImageOptions options;
    options.image = image;
    options.num_clients = 1000000;
    options.label_concentration = 0.5;
    return data::MakeVirtualImageFederation(options);
  }
  image.train_per_class = 120;
  data::ImageCorpus corpus = data::MakeSyntheticImageCorpus(image);
  util::Rng rng(seed + 17);
  data::FederatedDataset federated;
  federated.num_classes = corpus.train->num_classes();
  federated.client_train = data::MakeClientShards(
      corpus.train, data::DirichletPartition(*corpus.train, 50, 0.5, rng));
  federated.test = corpus.test;
  return federated;
}

models::ModelFactory MakeFactory(const Workload& w) {
  const std::uint64_t seed = kTaskSeed;
  if (w.name == "vision-resnet") {
    models::ResNetConfig config;
    config.height = config.width = 8;
    config.num_classes = 10;
    config.blocks_per_stage = 1;
    config.base_width = 6;
    config.gn_groups = 2;
    config.seed = seed;
    return models::MakeResNet(config);
  }
  if (w.name == "crowd-secure") {
    models::CnnConfig config;
    config.height = config.width = 8;
    config.num_classes = 10;
    config.seed = seed;
    return models::MakeCnn(config);
  }
  models::LstmConfig config;
  config.vocab_size = 90;
  config.num_classes = 2;
  config.seq_len = 10;
  config.embed_dim = 12;
  config.hidden_dim = 24;
  config.seed = seed;
  return models::MakeLstm(config);
}

std::unique_ptr<fl::FlAlgorithm> MakeServer(const Workload& w,
                                            std::uint64_t run_seed) {
  fl::AlgorithmConfig config = w.config;
  config.seed = run_seed;
  std::unique_ptr<fl::FlAlgorithm> server;
  if (w.fedcross) {
    core::FedCrossOptions options;
    options.alpha = 0.9;
    server = std::make_unique<core::FedCross>(config, MakeData(w),
                                              MakeFactory(w), options);
  } else {
    server = std::make_unique<fl::FedAvg>(config, MakeData(w), MakeFactory(w));
  }
  return server;
}

std::uint64_t Digest(const fl::FlatParams& params) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the raw bytes
  const auto* bytes = reinterpret_cast<const unsigned char*>(params.data());
  for (std::size_t i = 0; i < params.size() * sizeof(float); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ull;
  }
  return h;
}

// ---------------------------------------------------------------------------
// One training run

struct RunRecord {
  std::uint64_t run_seed = 0;
  bool traced = false;
  double setup_s = 0.0;
  std::uint64_t round1_digest = 0;  // global model after round 1
  std::vector<double> round_ms;   // rounds 2..R
  std::vector<double> checkpoint_ms;  // each save by fl_bench
  std::vector<double> accuracy;   // rounds 1..R
  double final_accuracy = 0.0;
  std::uint64_t digest = 0;
  std::uint64_t wire_bytes = 0;
  fl::FaultStats faults;
  std::int64_t dispatches = 0;
  std::int64_t inflight = 0;  // async dispatches not yet consumed at the end
  double loop_wall_s = 0.0;
  double loop_cpu_s = 0.0;
};

// Builds a fresh server, runs round 1 (set-up ends there), then rounds
// 2..rounds one Run() call at a time. `rounds` == 1 is a set-up-only trial.
RunRecord TrainRun(const Workload& w, std::uint64_t run_seed,
                   const std::string& work_dir, int rounds, bool traced,
                   std::unique_ptr<fl::FlAlgorithm>* keep = nullptr) {
  RunRecord rec;
  rec.run_seed = run_seed;
  rec.traced = traced;
  g_spans_on = traced;
  if (traced) obs::SetEventsPath(work_dir + "/events.jsonl.part");
  double t0 = NowS();
  std::unique_ptr<fl::FlAlgorithm> server;
  {
    SpanScope span("setup");
    server = MakeServer(w, run_seed);
    server->Run(1, /*eval_every=*/1);
  }
  rec.setup_s = NowS() - t0;
  rec.round1_digest = Digest(server->GlobalParams());
  double wall0 = NowS();
  double cpu0 = CpuS();
  for (int r = 1; r < rounds; ++r) {
    SpanScope span("round");
    double t = NowS();
    server->Run(r + 1, /*eval_every=*/1);
    if (w.checkpoint_every > 0 && (r + 1) % w.checkpoint_every == 0) {
      SpanScope save_span("checkpoint");
      double t_save = NowS();
      util::Status s = server->SaveCheckpoint(work_dir + "/auto.fcrs");
      if (!s.ok()) std::fprintf(stderr, "%s\n", s.ToString().c_str());
      rec.checkpoint_ms.push_back((NowS() - t_save) * 1e3);
    }
    rec.round_ms.push_back((NowS() - t) * 1e3);
  }
  rec.loop_wall_s = NowS() - wall0;
  rec.loop_cpu_s = CpuS() - cpu0;
  if (traced) {
    obs::SetEventsPath("");
    // Keep the events of the last traced run only.
    std::error_code ec;
    std::filesystem::rename(work_dir + "/events.jsonl.part",
                            work_dir + "/events.jsonl", ec);
  }
  g_spans_on = false;
  for (const fl::RoundRecord& record : server->history().records()) {
    rec.accuracy.push_back(record.test_accuracy);
  }
  rec.final_accuracy = rec.accuracy.empty() ? 0.0 : rec.accuracy.back();
  rec.digest = Digest(server->GlobalParams());
  rec.wire_bytes = server->comm().total_wire_upload_bytes() +
                   server->comm().total_wire_download_bytes();
  rec.faults = server->fault_stats();
  rec.dispatches = static_cast<std::int64_t>(rounds) *
                       w.config.clients_per_round +
                   rec.faults.retries;
  rec.inflight = server->inflight_dispatches();
  if (keep != nullptr) *keep = std::move(server);
  return rec;
}

// ---------------------------------------------------------------------------
// Probes: each module's public entry points at the workload's shapes.

struct Probe {
  std::string name;
  double value;
};

struct ProbeResult {
  std::vector<Probe> values;
  bool plan_equals_layers = false;
  bool masked_sum_exact = false;
  bool resume_exact = false;  // a checkpoint reload restores the model
};

double GemmGflops(const Workload& w) {
  const int m = w.gemm_m, n = w.gemm_n, k = w.gemm_k;
  std::vector<float> a(m * k, 0.5f), b(k * n, 0.25f), c(m * n, 0.0f);
  const int calls = std::max(1, static_cast<int>(2e7 / (2.0 * m * n * k)));
  double ms = TimeMs("tensor.gemm", 5, [&] {
    for (int i = 0; i < calls; ++i) {
      ops::Gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
                c.data(), n);
    }
  });
  return 2.0 * m * n * k * calls / (ms * 1e-3) / 1e9;
}

// Looped per-instance time over grouped time at count = K.
double GroupedSpeedup(const Workload& w) {
  const int m = w.gemm_m, n = w.gemm_n, k = w.gemm_k;
  const int count = w.config.clients_per_round;
  const int batch = w.config.train.batch_size;
  const int images = w.conv ? batch : 1;
  std::vector<std::vector<float>> a(count, std::vector<float>(m * k, 0.5f));
  std::vector<std::vector<float>> b(
      count, std::vector<float>(static_cast<std::size_t>(images) * k * n, 0.25f));
  std::vector<std::vector<float>> c(
      count, std::vector<float>(static_cast<std::size_t>(images) * m * n));
  const int calls = std::max(
      1, static_cast<int>(2e7 / (2.0 * m * n * k * images * count)));
  double looped = TimeMs("tensor.looped", 5, [&] {
    for (int it = 0; it < calls; ++it) {
      for (int g = 0; g < count; ++g) {
        for (int img = 0; img < images; ++img) {
          ops::Gemm(false, false, m, n, k, 1.0f, a[g].data(), k,
                    b[g].data() + static_cast<std::size_t>(img) * k * n, n,
                    0.0f, c[g].data() + static_cast<std::size_t>(img) * m * n,
                    n);
        }
      }
    }
  });
  double grouped = 0.0;
  if (w.conv) {
    std::vector<ops::ConvGroup> groups(count);
    for (int g = 0; g < count; ++g) {
      groups[g] = {a[g].data(), b[g].data(), c[g].data()};
    }
    grouped = TimeMs("tensor.conv_grouped", 5, [&] {
      for (int it = 0; it < calls; ++it) {
        ops::ConvGrouped(batch, m, n, k, groups.data(), count);
      }
    });
  } else {
    std::vector<ops::GemmGroup> groups(count);
    for (int g = 0; g < count; ++g) {
      groups[g] = {a[g].data(), b[g].data(), c[g].data()};
    }
    grouped = TimeMs("tensor.gemm_grouped", 5, [&] {
      for (int it = 0; it < calls; ++it) {
        ops::GemmGrouped(false, false, m, n, k, 1.0f, k, n, 0.0f, n,
                         groups.data(), count);
      }
    });
  }
  return looped / grouped;
}

// `server` is a finished training run of `run_seed`; its model is the
// starting point of every model-sized probe.
ProbeResult RunProbes(const Workload& w, std::uint64_t seed,
                      std::uint64_t run_seed, const std::string& work_dir,
                      fl::FlAlgorithm& server) {
  ProbeResult out;
  auto add = [&](const std::string& name, double value) {
    out.values.push_back({name, value});
  };
  const int k = w.config.clients_per_round;
  const models::ModelFactory factory = MakeFactory(w);
  data::FederatedDataset data = MakeData(w);
  std::shared_ptr<data::Dataset> test = data.test;
  fl::ClientPopulation population(w.config.population, data);
  const fl::FlatParams init = server.GlobalParams();

  // tensor
  add("tensor.gemm_gflops", GemmGflops(w));
  add("tensor.grouped_speedup", GroupedSpeedup(w));

  // nn: one K-cohort through the layer interpreter and the plan runtime,
  // from the same initial model and the same per-job training streams.
  util::Rng pick(seed ^ 0x5eed);
  std::vector<const fl::FlClient*> clients;
  for (int i = 0; i < k; ++i) {
    auto id = static_cast<std::int64_t>(
        pick.UniformInt(static_cast<std::uint64_t>(population.size())));
    clients.push_back(&population.Client(id));
  }
  fl::ClientTrainSpec layers_spec;
  layers_spec.options = w.config.train;
  layers_spec.options.exec = fl::ExecMode::kLayers;
  fl::ClientTrainSpec plan_spec = layers_spec;
  plan_spec.options.exec = fl::ExecMode::kPlan;
  std::vector<fl::LocalTrainResult> layer_results(k), plan_results(k);
  fl::ModelPool layer_pool(factory);
  fl::ModelPool plan_pool(factory);
  double layers_ms = TimeMs("nn.train_layers", 3, [&] {
    for (int i = 0; i < k; ++i) {
      util::Rng rng(seed * 1000 + i);
      clients[i]->Train(layer_pool, init, layers_spec, rng, layer_results[i]);
    }
  });
  double plan_ms = TimeMs("nn.train_plan", 3, [&] {
    std::vector<util::Rng> rngs;
    for (int i = 0; i < k; ++i) rngs.emplace_back(seed * 1000 + i);
    std::vector<fl::PlanJob> jobs(k);
    for (int i = 0; i < k; ++i) {
      jobs[i] = {clients[i], &init, &plan_spec, &rngs[i], &plan_results[i]};
    }
    fl::RunPlanJobs(plan_pool, jobs.data(), k);
  });
  add("nn.train_layers_ms", layers_ms);
  add("nn.train_plan_ms", plan_ms);
  add("nn.plan_over_layers", plan_ms / layers_ms);
  out.plan_equals_layers = true;
  for (int i = 0; i < k; ++i) {
    const fl::FlatParams& x = layer_results[i].params;
    const fl::FlatParams& y = plan_results[i].params;
    if (x.size() != y.size() ||
        std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) != 0) {
      out.plan_equals_layers = false;
    }
  }
  Tensor::Shape input{w.config.train.batch_size};
  for (int d : test->example_shape()) input.push_back(d);
  std::vector<double> compile_ms;
  for (int i = 0; i < 3; ++i) {
    fl::ModelPool cold(factory);
    fl::ModelPool::Lease lease = cold.Acquire();
    SpanScope span("probe.nn.plan_compile");
    double t0 = NowS();
    cold.ProgramFor(input, lease->model);
    compile_ms.push_back((NowS() - t0) * 1e3);
  }
  add("nn.plan_compile_ms", Median(compile_ms));

  // core: similarity over all K(K-1)/2 pairs plus the fusion step, on the
  // cohort's trained models.
  std::vector<fl::FlatParams> uploads;
  for (const fl::LocalTrainResult& r : layer_results) uploads.push_back(r.params);
  std::vector<fl::FlatParams> fused(k);
  add("core.cross_aggregate_ms", TimeMs("core.cross_aggregate", 5, [&] {
        std::vector<std::vector<double>> sim(k, std::vector<double>(k, 0.0));
        for (int i = 0; i < k; ++i) {
          for (int j = i + 1; j < k; ++j) {
            sim[i][j] = sim[j][i] = core::ModelSimilarity(
                uploads[i], uploads[j], core::SimilarityMeasure::kCosine);
          }
        }
        for (int i = 0; i < k; ++i) {
          int co = i == 0 ? 1 : 0;
          for (int j = 0; j < k; ++j) {
            if (j != i && sim[i][j] < sim[i][co]) co = j;
          }
          fused[i] = core::FedCross::CrossAggregate(uploads[i], uploads[co], 0.9);
        }
      }));

  // fl
  fl::ModelPool eval_pool(factory);
  add("fl.eval_ms", TimeMs("fl.eval", 5, [&] {
        fl::EvaluateParams(eval_pool, init, *test, w.config.eval_batch_size);
      }));
  const std::string ckpt = work_dir + "/probe.fcrs";
  add("fl.checkpoint_save_ms", TimeMs("fl.checkpoint_save", 3, [&] {
        util::Status s = server.SaveCheckpoint(ckpt);
        if (!s.ok()) std::fprintf(stderr, "%s\n", s.ToString().c_str());
      }));
  add("fl.checkpoint_bytes",
      static_cast<double>(std::filesystem::file_size(ckpt)));
  std::unique_ptr<fl::FlAlgorithm> resumed = MakeServer(w, run_seed);
  bool load_ok = true;
  add("fl.checkpoint_load_ms", TimeMs("fl.checkpoint_load", 3, [&] {
        load_ok = load_ok && resumed->LoadCheckpoint(ckpt).ok();
      }));
  out.resume_exact =
      load_ok && Digest(resumed->GlobalParams()) == Digest(init);
  std::filesystem::remove(ckpt);
  std::vector<double> materialize_us;
  for (int i = 0; i < 50; ++i) {
    auto id = static_cast<std::int64_t>(
        pick.UniformInt(static_cast<std::uint64_t>(population.size())));
    if (i % 8 == 0) population.BeginBatch();
    double t0 = NowS();
    population.Client(id);
    materialize_us.push_back((NowS() - t0) * 1e6);
  }
  add("fl.population.materialize_us", Median(materialize_us));

  // comm: the workload's codec on one trained upload.
  const comm::ShapeTable& shapes = server.shape_table();
  std::vector<float> residual;
  std::vector<std::uint8_t> frame;
  fl::FlatParams decoded;
  util::Rng codec_rng(seed + 3);
  const int codec_calls = 20;
  add("comm.encode_upload_us", 1e3 / codec_calls * TimeMs("comm.encode", 5, [&] {
        for (int i = 0; i < codec_calls; ++i) {
          comm::EncodeUpload(w.config.codec, uploads[0], init, shapes,
                             residual, codec_rng, frame);
        }
      }));
  add("comm.decode_upload_us", 1e3 / codec_calls * TimeMs("comm.decode", 5, [&] {
        for (int i = 0; i < codec_calls; ++i) {
          util::Status s = comm::DecodeUpload(frame, init, shapes, decoded);
          if (!s.ok()) std::fprintf(stderr, "%s\n", s.ToString().c_str());
        }
      }));
  add("comm.compression_ratio",
      static_cast<double>(init.size() * sizeof(float)) /
          static_cast<double>(frame.size()));

  // privacy: the workload's DP and masking settings, or crowd-secure's
  // where the workload leaves them off.
  privacy::DpOptions dp = w.config.dp;
  if (!dp.Enabled()) {
    dp.clip_norm = 1.0f;
    dp.noise_multiplier = 0.1f;
  }
  fl::FlatParams sanitized;
  util::Rng dp_rng(seed + 5);
  std::vector<double> sanitize_us;
  for (int i = 0; i < 3 * k; ++i) {
    sanitized = uploads[i % k];
    double t0 = NowS();
    privacy::SanitizeUpdateInPlace(init, sanitized, dp, dp_rng);
    sanitize_us.push_back((NowS() - t0) * 1e6);
  }
  add("privacy.sanitize_us", Median(sanitize_us));
  privacy::MaskOptions mask = w.config.secure_agg;
  mask.enabled = true;
  std::vector<const fl::FlatParams*> cohort;
  for (int i = 0; i < k; ++i) cohort.push_back(i == k - 1 ? nullptr : &uploads[i]);
  out.masked_sum_exact = true;
  add("privacy.masked_sum_ms", TimeMs("privacy.masked_sum", 3, [&] {
        privacy::MaskedSumReport report = privacy::SimulateMaskedAggregation(
            seed, /*round=*/0, /*salt=*/0, cohort, mask);
        out.masked_sum_exact = out.masked_sum_exact && report.exact;
      }));
  return out;
}

// ---------------------------------------------------------------------------
// JSON record

void PrintDoubles(const char* key, const std::vector<double>& v) {
  std::printf("\"%s\":[", key);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::printf("%s%.9g", i ? "," : "", v[i]);
  }
  std::printf("]");
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

int Main(int argc, char** argv) {
  util::FlagParser flags(argc, argv);
  std::string workload = flags.GetString("workload", "");
  auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  double seconds = flags.GetDouble("seconds", 10.0);
  bool trace = flags.GetInt("trace", 0) != 0;
  std::string work_dir = flags.GetString("work_dir", ".");
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return 1;
  }
  Workload w;
  if (!MakeWorkload(workload, w)) {
    std::fprintf(stderr, "unknown --workload '%s'\n", workload.c_str());
    return 1;
  }
  fl::SetFlThreads(kFlThreads);
  std::filesystem::create_directories(work_dir);

  // Training runs, each under its own run seed derived from --seed, until
  // the budget is spent. Untraced mode makes at least the workload's
  // `stat_runs`; runs beyond them add round-time samples only. Trace mode
  // trains each run seed twice, traced and untraced in
  // alternating order, so the tracing overhead is a paired comparison.
  // Three set-up-only trials replay run 0's first round: more set-up
  // samples, and a same-seed determinism check.
  const int min_runs = trace ? 1 : w.stat_runs;
  std::vector<RunRecord> runs;
  std::unique_ptr<fl::FlAlgorithm> last;
  std::uint64_t last_seed = 0;
  const double budget_end = NowS() + seconds;
  for (int i = 0;; ++i) {
    const std::uint64_t run_seed = seed * 1000 + static_cast<std::uint64_t>(i);
    const double t0 = NowS();
    // Only the final run's server outlives its run, and the freed heap goes
    // back to the kernel, so the peak RSS is one run's and not one run's
    // plus what earlier runs left resident.
    last.reset();
    malloc_trim(0);
    if (trace) {
      runs.push_back(TrainRun(w, run_seed, work_dir, w.rounds, i % 2 == 0));
    }
    runs.push_back(TrainRun(w, run_seed, work_dir, w.rounds,
                            trace && i % 2 == 1, &last));
    last_seed = run_seed;
    if (i + 1 >= min_runs && NowS() + (NowS() - t0) > budget_end) break;
  }
  // The workload's peak, before the set-up trials and probes allocate.
  const std::int64_t peak_rss_bytes = util::PeakRssBytes();
  std::vector<RunRecord> setup_trials;
  for (int i = 0; i < 3; ++i) {
    setup_trials.push_back(TrainRun(w, runs[0].run_seed, work_dir, 1, false));
  }
  g_spans_on = trace;
  ProbeResult probes = RunProbes(w, seed, last_seed, work_dir, *last);

  std::printf("{\"workload\":%s,\"seed\":%llu,\"rounds\":%d,\"stat_runs\":%d,"
              "\"target\":%.9g,\"floor\":%.9g,\"clients_per_round\":%d,"
              "\"fl_threads\":%d,",
              JsonString(w.name).c_str(), static_cast<unsigned long long>(seed),
              w.rounds, w.stat_runs, w.target, w.floor,
              w.config.clients_per_round, kFlThreads);
  std::printf("\"simd_tier\":%s,\"compiler\":%s,\"build_type\":%s,",
              JsonString(ops::SimdTierName(ops::ActiveSimdTier())).c_str(),
              JsonString(__VERSION__).c_str(),
              JsonString(PERFBENCH_BUILD_TYPE).c_str());
  std::printf("\"peak_rss_bytes\":%lld,",
              static_cast<long long>(peak_rss_bytes));
  std::printf("\"setup_trials\":[");
  for (std::size_t i = 0; i < setup_trials.size(); ++i) {
    std::printf("%s{\"setup_s\":%.9g,\"round1_digest\":\"%016llx\"}",
                i ? "," : "", setup_trials[i].setup_s,
                static_cast<unsigned long long>(setup_trials[i].round1_digest));
  }
  std::printf("],\"runs\":[");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunRecord& r = runs[i];
    std::printf("%s{\"run_seed\":%llu,\"traced\":%s,\"setup_s\":%.9g,"
                "\"round1_digest\":\"%016llx\",",
                i ? "," : "", static_cast<unsigned long long>(r.run_seed),
                r.traced ? "true" : "false", r.setup_s,
                static_cast<unsigned long long>(r.round1_digest));
    PrintDoubles("round_ms", r.round_ms);
    std::printf(",");
    PrintDoubles("accuracy", r.accuracy);
    std::printf(",");
    PrintDoubles("checkpoint_ms", r.checkpoint_ms);
    std::printf(",\"final_accuracy\":%.9g,\"digest\":\"%016llx\","
                "\"wire_bytes\":%llu,\"dispatches\":%lld,\"dropouts\":%lld,"
                "\"stragglers\":%lld,\"rejected\":%lld,\"timeouts\":%lld,"
                "\"retries\":%lld,\"inflight\":%lld,\"loop_wall_s\":%.9g,"
                "\"loop_cpu_s\":%.9g}",
                r.final_accuracy, static_cast<unsigned long long>(r.digest),
                static_cast<unsigned long long>(r.wire_bytes),
                static_cast<long long>(r.dispatches),
                static_cast<long long>(r.faults.dropouts),
                static_cast<long long>(r.faults.stragglers),
                static_cast<long long>(r.faults.rejected),
                static_cast<long long>(r.faults.timeouts),
                static_cast<long long>(r.faults.retries),
                static_cast<long long>(r.inflight), r.loop_wall_s,
                r.loop_cpu_s);
  }
  std::printf("],\"plan_equals_layers\":%s,\"masked_sum_exact\":%s,"
              "\"resume_exact\":%s,\"probes\":{",
              probes.plan_equals_layers ? "true" : "false",
              probes.masked_sum_exact ? "true" : "false",
              probes.resume_exact ? "true" : "false");
  for (std::size_t i = 0; i < probes.values.size(); ++i) {
    std::printf("%s%s:%.9g", i ? "," : "",
                JsonString(probes.values[i].name).c_str(),
                probes.values[i].value);
  }
  std::printf("},\"spans\":[");
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    std::printf("%s[%s,%.3f,%.3f]", i ? "," : "",
                JsonString(g_spans[i].name).c_str(), g_spans[i].start_us,
                g_spans[i].dur_us);
  }
  std::printf("]}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
