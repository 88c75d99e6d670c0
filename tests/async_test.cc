// The event-driven async round engine. The invariants under test:
//   * clock profiles and jitter live on dedicated RNG streams, so enabling
//     the heterogeneous clock in sync mode cannot perturb a single training
//     trajectory (sync stays bit-identical to the clean run);
//   * virtual time and the whole async trajectory are pure functions of the
//     config — bit-identical across --fl_threads values and across reruns;
//   * staleness weights match the FedBuff family by hand;
//   * buffered aggregation beats the sync barrier on virtual time under
//     straggler-heavy fleets;
//   * FCRS checkpoints capture the engine mid-buffer (save -> kill -> load
//     resumes bit-identically with uploads still in flight, failed events
//     included).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/fedcross.h"
#include "fl/algorithm.h"
#include "fl/clock.h"
#include "fl/clusamp.h"
#include "fl/fedavg.h"
#include "fl/fedcluster.h"
#include "fl/fedgen.h"
#include "fl/parallel.h"
#include "fl/scaffold.h"
#include "nn/linear.h"
#include "test_util.h"

namespace fedcross::fl {
namespace {

models::ModelFactory LinearFactory(int dim, std::uint64_t seed = 1) {
  return [dim, seed]() {
    util::Rng rng(seed);
    nn::Sequential model;
    model.Add(std::make_unique<nn::Linear>(dim, 2, rng));
    return model;
  };
}

data::FederatedDataset MakeToyFederated(int num_clients, int per_client,
                                        int dim, std::uint64_t seed) {
  util::Rng rng(seed);
  data::FederatedDataset federated;
  federated.num_classes = 2;
  auto gen_example = [&](int k, std::vector<float>& features) {
    float mean = k == 0 ? -1.0f : 1.0f;
    for (int d = 0; d < dim; ++d) {
      features.push_back(mean + static_cast<float>(rng.Normal(0.0, 0.6)));
    }
  };
  for (int c = 0; c < num_clients; ++c) {
    std::vector<float> features;
    std::vector<int> labels;
    for (int i = 0; i < per_client; ++i) {
      int k = rng.Uniform() < 0.9 ? c % 2 : 1 - c % 2;
      gen_example(k, features);
      labels.push_back(k);
    }
    federated.client_train.push_back(std::make_shared<data::InMemoryDataset>(
        Tensor::Shape{dim}, std::move(features), std::move(labels), 2));
  }
  std::vector<float> features;
  std::vector<int> labels;
  for (int i = 0; i < 40; ++i) {
    gen_example(i % 2, features);
    labels.push_back(i % 2);
  }
  federated.test = std::make_shared<data::InMemoryDataset>(
      Tensor::Shape{dim}, std::move(features), std::move(labels), 2);
  return federated;
}

AlgorithmConfig ToyConfig() {
  AlgorithmConfig config;
  config.clients_per_round = 4;
  config.train.local_epochs = 1;
  config.train.batch_size = 10;
  config.train.lr = 0.05f;
  config.seed = 17;
  return config;
}

// A straggler-prone fleet on a heterogeneous clock, with a per-dispatch
// deadline so slow attempts time out and re-dispatch.
AlgorithmConfig AsyncConfig() {
  AlgorithmConfig config = ToyConfig();
  config.async.mode = RoundMode::kAsync;
  config.async.buffer_size = 3;
  config.async.dispatch_timeout = 0.5;
  config.async.max_retries = 1;
  config.async.clock.compute_speed_min = 25.0;
  config.async.clock.compute_speed_max = 400.0;
  config.async.clock.bandwidth_min = 1e6;
  config.async.clock.bandwidth_max = 1e9;
  config.async.clock.jitter = 0.1;
  config.faults.profile.dropout_prob = 0.1;
  config.faults.profile.straggler_prob = 0.4;
  return config;
}

std::unique_ptr<FlAlgorithm> MakeAlgorithm(const std::string& name,
                                           AlgorithmConfig config) {
  data::FederatedDataset data = MakeToyFederated(8, 40, 4, 41);
  models::ModelFactory factory = LinearFactory(4);
  if (name == "FedAvg") {
    return std::make_unique<FedAvg>(config, std::move(data),
                                    std::move(factory));
  }
  if (name == "FedProx") {
    return std::make_unique<FedProx>(config, std::move(data),
                                     std::move(factory), 0.1f);
  }
  if (name == "SCAFFOLD") {
    return std::make_unique<Scaffold>(config, std::move(data),
                                      std::move(factory));
  }
  if (name == "FedGen") {
    return std::make_unique<FedGen>(config, std::move(data),
                                    std::move(factory));
  }
  if (name == "CluSamp") {
    return std::make_unique<CluSamp>(config, std::move(data),
                                     std::move(factory));
  }
  if (name == "FedCluster") {
    return std::make_unique<FedCluster>(config, std::move(data),
                                        std::move(factory), /*num_clusters=*/2);
  }
  if (name == "FedCross") {
    core::FedCrossOptions options;
    options.alpha = 0.9;
    return std::make_unique<core::FedCross>(config, std::move(data),
                                            std::move(factory), options);
  }
  ADD_FAILURE() << "unknown algorithm " << name;
  return nullptr;
}

const char* kAllAlgorithms[] = {"FedAvg",  "FedProx",    "SCAFFOLD", "FedGen",
                                "CluSamp", "FedCluster", "FedCross"};

using testing::ExpectParamsBitEqual;

// Restores the FL pool size when a test that varies it exits (including on
// assertion failure), so later tests see the default again.
struct ThreadGuard {
  ~ThreadGuard() { SetFlThreads(0); }
};

// --------------------------------------------------------------------------
// Virtual clock primitives
// --------------------------------------------------------------------------

TEST(ClockTest, ProfileIsDeterministicPerClientAndBounded) {
  ClockModel model;
  model.compute_speed_min = 10.0;
  model.compute_speed_max = 1000.0;
  model.bandwidth_min = 1e5;
  model.bandwidth_max = 1e9;

  bool saw_distinct_speed = false;
  for (std::int64_t id = 0; id < 64; ++id) {
    ClockProfile a = DrawClockProfile(model, /*seed=*/7, id);
    ClockProfile b = DrawClockProfile(model, /*seed=*/7, id);
    EXPECT_EQ(a.compute_speed, b.compute_speed) << id;
    EXPECT_EQ(a.bandwidth, b.bandwidth) << id;
    EXPECT_GE(a.compute_speed, model.compute_speed_min);
    EXPECT_LE(a.compute_speed, model.compute_speed_max);
    EXPECT_GE(a.bandwidth, model.bandwidth_min);
    EXPECT_LE(a.bandwidth, model.bandwidth_max);
    ClockProfile other = DrawClockProfile(model, /*seed=*/7, id + 1);
    saw_distinct_speed |= other.compute_speed != a.compute_speed;
  }
  EXPECT_TRUE(saw_distinct_speed) << "heterogeneous model drew a flat fleet";

  // Different run seeds re-roll the fleet.
  ClockProfile reseeded = DrawClockProfile(model, /*seed=*/8, 0);
  ClockProfile original = DrawClockProfile(model, /*seed=*/7, 0);
  EXPECT_NE(reseeded.compute_speed, original.compute_speed);

  // The homogeneous default collapses to the exact configured point.
  ClockModel flat;
  EXPECT_FALSE(flat.Heterogeneous());
  ClockProfile p = DrawClockProfile(flat, /*seed=*/7, 3);
  EXPECT_EQ(p.compute_speed, 100.0);
  EXPECT_EQ(p.bandwidth, 1e9);
}

TEST(ClockTest, ClockSeedSeparatesJobs) {
  EXPECT_EQ(ClockSeed(1, 2, 3, 4), ClockSeed(1, 2, 3, 4));
  EXPECT_NE(ClockSeed(1, 2, 3, 4), ClockSeed(1, 2, 3, 5));
  EXPECT_NE(ClockSeed(1, 2, 3, 4), ClockSeed(1, 2, 4, 4));
  EXPECT_NE(ClockSeed(1, 2, 3, 4), ClockSeed(1, 3, 3, 4));
  EXPECT_NE(ClockSeed(1, 2, 3, 4), ClockSeed(2, 2, 3, 4));
}

TEST(ClockTest, SimulatedDurationComposes) {
  ClockProfile profile;
  profile.compute_speed = 50.0;  // steps / s
  profile.bandwidth = 1000.0;    // bytes / s
  // 200 bytes down + 300 up at 1000 B/s = 0.5 s; 2x slowdown * 25 steps at
  // 50 steps/s = 1.0 s, jittered by 1.1 -> 1.1 s.
  double d = SimulatedDuration(profile, /*slowdown=*/2.0, /*steps=*/25.0,
                               /*wire_bytes_down=*/200, /*wire_bytes_up=*/300,
                               /*jitter_factor=*/1.1);
  EXPECT_NEAR(d, 0.5 + 1.1, 1e-12);
}

TEST(ClockTest, StalenessWeightMatchesFedBuffFamily) {
  EXPECT_EQ(StalenessWeight(StalenessPolicy::kConstant, 0.5, 0), 1.0);
  EXPECT_EQ(StalenessWeight(StalenessPolicy::kConstant, 0.5, 9), 1.0);
  EXPECT_EQ(StalenessWeight(StalenessPolicy::kPolynomial, 0.5, 0), 1.0);
  EXPECT_NEAR(StalenessWeight(StalenessPolicy::kPolynomial, 0.5, 3), 0.5,
              1e-12);
  EXPECT_NEAR(StalenessWeight(StalenessPolicy::kPolynomial, 1.0, 4), 0.2,
              1e-12);
  double prev = 1.0;
  for (int tau = 1; tau < 8; ++tau) {
    double w = StalenessWeight(StalenessPolicy::kPolynomial, 0.5, tau);
    EXPECT_LT(w, prev) << tau;
    prev = w;
  }
}

TEST(ClockTest, ParseRoundTrips) {
  RoundMode mode = RoundMode::kSync;
  EXPECT_TRUE(ParseRoundMode("async", &mode));
  EXPECT_EQ(mode, RoundMode::kAsync);
  EXPECT_TRUE(ParseRoundMode(RoundModeName(RoundMode::kSync), &mode));
  EXPECT_EQ(mode, RoundMode::kSync);
  EXPECT_FALSE(ParseRoundMode("bogus", &mode));

  StalenessPolicy policy = StalenessPolicy::kConstant;
  EXPECT_TRUE(ParseStalenessPolicy("polynomial", &policy));
  EXPECT_EQ(policy, StalenessPolicy::kPolynomial);
  EXPECT_TRUE(
      ParseStalenessPolicy(StalenessPolicyName(StalenessPolicy::kConstant),
                           &policy));
  EXPECT_EQ(policy, StalenessPolicy::kConstant);
  EXPECT_FALSE(ParseStalenessPolicy("bogus", &policy));
}

// --------------------------------------------------------------------------
// Sync mode: the clock is observation-only
// --------------------------------------------------------------------------

TEST(SyncClockTest, HeterogeneousClockCannotPerturbTraining) {
  // The clock stream is independent of the training / fault / codec
  // streams, so a sync run on a wildly heterogeneous fleet must produce the
  // exact parameters of the clean run — only virtual time may differ.
  for (const char* name : kAllAlgorithms) {
    SCOPED_TRACE(name);
    std::unique_ptr<FlAlgorithm> clean = MakeAlgorithm(name, ToyConfig());
    clean->Run(3, /*eval_every=*/1);

    AlgorithmConfig clocked_config = ToyConfig();
    clocked_config.async.clock.compute_speed_min = 5.0;
    clocked_config.async.clock.compute_speed_max = 500.0;
    clocked_config.async.clock.bandwidth_min = 1e5;
    clocked_config.async.clock.bandwidth_max = 1e8;
    clocked_config.async.clock.jitter = 0.25;
    std::unique_ptr<FlAlgorithm> clocked = MakeAlgorithm(name, clocked_config);
    clocked->Run(3, /*eval_every=*/1);

    ExpectParamsBitEqual(clean->GlobalParams(), clocked->GlobalParams());
    EXPECT_GT(clocked->virtual_now(), 0.0);
    EXPECT_NE(clocked->virtual_now(), clean->virtual_now());
    EXPECT_EQ(clocked->inflight_dispatches(), 0);
  }
}

TEST(SyncClockTest, VirtualTimeIsThreadCountInvariant) {
  ThreadGuard guard;
  AlgorithmConfig config = ToyConfig();
  config.async.clock.compute_speed_min = 5.0;
  config.async.clock.compute_speed_max = 500.0;
  config.async.clock.jitter = 0.25;

  SetFlThreads(1);
  std::unique_ptr<FlAlgorithm> sequential = MakeAlgorithm("FedAvg", config);
  sequential->Run(3, /*eval_every=*/1);

  SetFlThreads(4);
  std::unique_ptr<FlAlgorithm> pooled = MakeAlgorithm("FedAvg", config);
  pooled->Run(3, /*eval_every=*/1);

  EXPECT_EQ(sequential->virtual_now(), pooled->virtual_now());
  ExpectParamsBitEqual(sequential->GlobalParams(), pooled->GlobalParams());
}

// --------------------------------------------------------------------------
// Async mode: determinism
// --------------------------------------------------------------------------

TEST(AsyncTest, TrajectoryIsThreadCountInvariant) {
  // The whole async trajectory — parameters, virtual time, fault and waste
  // accounting — is a pure function of the config, independent of how many
  // threads resolve the dispatches.
  ThreadGuard guard;
  for (const char* name : kAllAlgorithms) {
    SCOPED_TRACE(name);
    SetFlThreads(1);
    std::unique_ptr<FlAlgorithm> sequential =
        MakeAlgorithm(name, AsyncConfig());
    sequential->Run(4, /*eval_every=*/1);

    SetFlThreads(4);
    std::unique_ptr<FlAlgorithm> pooled = MakeAlgorithm(name, AsyncConfig());
    pooled->Run(4, /*eval_every=*/1);

    ExpectParamsBitEqual(sequential->GlobalParams(), pooled->GlobalParams());
    EXPECT_EQ(sequential->virtual_now(), pooled->virtual_now());
    EXPECT_EQ(sequential->model_version(), pooled->model_version());
    EXPECT_EQ(sequential->inflight_dispatches(),
              pooled->inflight_dispatches());
    EXPECT_EQ(sequential->fault_stats().timeouts,
              pooled->fault_stats().timeouts);
    EXPECT_EQ(sequential->fault_stats().retries,
              pooled->fault_stats().retries);
    EXPECT_EQ(sequential->comm().total_wasted_bytes(),
              pooled->comm().total_wasted_bytes());
    EXPECT_EQ(sequential->comm().total_wire_wasted_bytes(),
              pooled->comm().total_wire_wasted_bytes());
  }
}

TEST(AsyncTest, RerunsAreBitIdentical) {
  std::unique_ptr<FlAlgorithm> first = MakeAlgorithm("FedAvg", AsyncConfig());
  first->Run(4, /*eval_every=*/1);
  std::unique_ptr<FlAlgorithm> second = MakeAlgorithm("FedAvg", AsyncConfig());
  second->Run(4, /*eval_every=*/1);
  ExpectParamsBitEqual(first->GlobalParams(), second->GlobalParams());
  EXPECT_EQ(first->virtual_now(), second->virtual_now());
}

TEST(AsyncTest, EngineStateAdvances) {
  std::unique_ptr<FlAlgorithm> algo = MakeAlgorithm("FedAvg", AsyncConfig());
  algo->Run(4, /*eval_every=*/1);
  // One aggregation per round, a buffered backlog (4 dispatched, 3
  // collected per round, minus faults), and a moving clock.
  EXPECT_EQ(algo->model_version(), 4);
  EXPECT_GT(algo->virtual_now(), 0.0);
  EXPECT_GE(algo->inflight_dispatches(), 0);
}

TEST(AsyncTest, TimeoutsRetryAndCountWaste) {
  // A deadline far below any attainable duration forces every dispatch
  // through the retry ladder and into the straggler bin, with all traffic
  // accounted as wasted.
  AlgorithmConfig config = ToyConfig();
  config.async.mode = RoundMode::kAsync;
  config.async.buffer_size = 2;
  config.async.dispatch_timeout = 1e-9;
  config.async.max_retries = 2;
  std::unique_ptr<FlAlgorithm> algo = MakeAlgorithm("FedAvg", config);
  algo->Run(2, /*eval_every=*/1);

  // 2 rounds x 4 slots x (1 + 2 retries) attempts, all timing out.
  EXPECT_EQ(algo->fault_stats().timeouts, 24);
  EXPECT_EQ(algo->fault_stats().retries, 16);
  EXPECT_EQ(algo->fault_stats().stragglers, 8);
  EXPECT_GT(algo->comm().total_wasted_bytes(), 0u);
  EXPECT_GT(algo->comm().total_wire_wasted_bytes(), 0u);
  // Nothing ever lands: the global model never moves off its init.
  ExpectParamsBitEqual(algo->GlobalParams(),
                     MakeAlgorithm("FedAvg", config)->GlobalParams());
}

TEST(AsyncTest, SyncDropoutCountsWastedDispatchBytes) {
  AlgorithmConfig config = ToyConfig();
  config.faults.profile.dropout_prob = 1.0;
  std::unique_ptr<FlAlgorithm> algo = MakeAlgorithm("FedAvg", config);
  algo->Run(2, /*eval_every=*/1);
  // Every dispatch was lost, so the whole download side is wasted and no
  // upload happened at all.
  EXPECT_EQ(algo->comm().total_wasted_bytes(),
            algo->comm().total_download_bytes());
  EXPECT_EQ(algo->comm().total_upload_bytes(), 0u);
}

// --------------------------------------------------------------------------
// Async beats the sync barrier on virtual time under stragglers
// --------------------------------------------------------------------------

TEST(AsyncTest, BuffersBeatTheBarrierUnderStragglers) {
  // Same fleet, same faults: sync pays the max over all slots every round
  // (the barrier waits for the slowest straggler), async pays only until
  // the buffer fills with the earliest arrivals.
  AlgorithmConfig sync_config = ToyConfig();
  sync_config.async.clock.compute_speed_min = 25.0;
  sync_config.async.clock.compute_speed_max = 400.0;
  sync_config.faults.profile.straggler_prob = 0.6;

  AlgorithmConfig async_config = sync_config;
  async_config.async.mode = RoundMode::kAsync;
  async_config.async.buffer_size = 2;

  std::unique_ptr<FlAlgorithm> sync_run = MakeAlgorithm("FedAvg", sync_config);
  sync_run->Run(8, /*eval_every=*/8);
  std::unique_ptr<FlAlgorithm> async_run =
      MakeAlgorithm("FedAvg", async_config);
  async_run->Run(8, /*eval_every=*/8);

  EXPECT_GT(sync_run->virtual_now(), 0.0);
  EXPECT_LT(async_run->virtual_now(), 0.7 * sync_run->virtual_now());
}

// --------------------------------------------------------------------------
// FCRS: mid-buffer resume
// --------------------------------------------------------------------------

TEST(AsyncCheckpointTest, MidBufferResumeIsBitIdentical) {
  // The screened cell corrupts uploads with NaNs and screens them away, so
  // the saved in-flight table also holds failed events (dropouts, terminal
  // timeouts, rejections), which the checkpoint stores without params. A
  // buffer of 2 leaves them in flight: rejections free their buffer slot,
  // so a buffer of 3 drains this toy cohort.
  AlgorithmConfig screened = AsyncConfig();
  screened.async.buffer_size = 2;
  screened.faults.profile.corrupt_prob = 0.3;
  screened.faults.profile.corruption = CorruptionKind::kNanInject;
  screened.screening.check_finite = true;
  struct Cell {
    const char* name;
    AlgorithmConfig config;
    bool screened;
  };
  for (const Cell& cell : {Cell{"FedAvg", AsyncConfig(), false},
                           Cell{"FedCross", AsyncConfig(), false},
                           Cell{"FedCross", screened, true}}) {
    const std::string label =
        std::string(cell.name) + (cell.screened ? "_screened" : "");
    SCOPED_TRACE(label);
    const std::string path = "async_ckpt_" + label + ".bin";

    std::unique_ptr<FlAlgorithm> full = MakeAlgorithm(cell.name, cell.config);
    full->Run(6, /*eval_every=*/1);

    // Interrupt with uploads still in flight: the checkpoint must carry
    // the buffered arrivals, the clock, and the version counters.
    std::int64_t inflight_at_save = 0;
    {
      std::unique_ptr<FlAlgorithm> first =
          MakeAlgorithm(cell.name, cell.config);
      first->Run(3, /*eval_every=*/1);
      inflight_at_save = first->inflight_dispatches();
      if (cell.screened) {
        std::vector<FaultKind> faults = first->inflight_faults();
        auto count = [&](FaultKind kind) {
          return std::count(faults.begin(), faults.end(), kind);
        };
        EXPECT_GT(count(FaultKind::kDropout) + count(FaultKind::kStraggler),
                  0)
            << "test must save a dropped in-flight event";
        EXPECT_GT(count(FaultKind::kRejected), 0)
            << "test must save a rejected in-flight event";
      }
      ASSERT_TRUE(first->SaveCheckpoint(path).ok());
    }
    ASSERT_GT(inflight_at_save, 0) << "test must interrupt mid-buffer";

    std::unique_ptr<FlAlgorithm> resumed =
        MakeAlgorithm(cell.name, cell.config);
    ASSERT_TRUE(resumed->LoadCheckpoint(path).ok());
    EXPECT_EQ(resumed->completed_rounds(), 3);
    EXPECT_EQ(resumed->inflight_dispatches(), inflight_at_save);
    resumed->Run(6, /*eval_every=*/1);

    ExpectParamsBitEqual(full->GlobalParams(), resumed->GlobalParams());
    EXPECT_EQ(full->virtual_now(), resumed->virtual_now());
    EXPECT_EQ(full->model_version(), resumed->model_version());
    EXPECT_EQ(full->inflight_dispatches(), resumed->inflight_dispatches());
    EXPECT_EQ(full->fault_stats().timeouts, resumed->fault_stats().timeouts);
    EXPECT_EQ(full->fault_stats().retries, resumed->fault_stats().retries);
    EXPECT_EQ(full->fault_stats().dropouts, resumed->fault_stats().dropouts);
    EXPECT_EQ(full->fault_stats().rejected, resumed->fault_stats().rejected);
    EXPECT_EQ(full->fault_stats().corrupted,
              resumed->fault_stats().corrupted);
    EXPECT_EQ(full->comm().total_wasted_bytes(),
              resumed->comm().total_wasted_bytes());
    EXPECT_EQ(full->comm().total_upload_bytes(),
              resumed->comm().total_upload_bytes());
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace fedcross::fl
