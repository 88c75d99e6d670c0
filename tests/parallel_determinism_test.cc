// Parallel client training must be bit-identical to the sequential legacy
// path: every client job trains under an Rng seeded from
// (config.seed, round, salt, slot), so neither the thread count nor the
// execution schedule can leak into the results. These tests run the same
// federation under --fl_threads=1 and --fl_threads=4 and require exactly
// equal GlobalParams() after 5 rounds.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "comm/wire.h"
#include "core/fedcross.h"
#include "fl/algorithm.h"
#include "fl/fedavg.h"
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
  config.train.local_epochs = 2;
  config.train.batch_size = 10;
  config.train.lr = 0.05f;
  config.seed = 17;
  // Nonzero dropout so the per-job dropout draw is exercised too: a
  // schedule-dependent draw would desynchronise the two runs immediately.
  config.faults.profile.dropout_prob = 0.2;
  return config;
}

// Restores the sequential default even if an assertion aborts the test body.
struct FlThreadsGuard {
  ~FlThreadsGuard() { SetFlThreads(1); }
};

using testing::ExpectParamsBitEqual;

FlatParams RunFedAvg(int threads, int rounds) {
  SetFlThreads(threads);
  FedAvg fedavg(ToyConfig(), MakeToyFederated(8, 40, 4, 41),
                LinearFactory(4));
  for (int r = 0; r < rounds; ++r) fedavg.RunRound(r);
  return fedavg.GlobalParams();
}

FlatParams RunFedCross(int threads, int rounds) {
  SetFlThreads(threads);
  core::FedCrossOptions options;
  options.alpha = 0.9;
  options.strategy = core::SelectionStrategy::kLowestSimilarity;
  core::FedCross fedcross(ToyConfig(), MakeToyFederated(8, 40, 4, 41),
                          LinearFactory(4), options);
  for (int r = 0; r < rounds; ++r) fedcross.RunRound(r);
  return fedcross.GlobalParams();
}

TEST(ParallelDeterminismTest, FlThreadsResolvesRequests) {
  FlThreadsGuard guard;
  SetFlThreads(1);
  EXPECT_EQ(FlThreads(), 1);
  SetFlThreads(4);
  EXPECT_EQ(FlThreads(), 4);
  SetFlThreads(0);  // auto: hardware_concurrency, never < 1
  EXPECT_GE(FlThreads(), 1);
}

TEST(ParallelDeterminismTest, FedAvgIsThreadCountInvariant) {
  FlThreadsGuard guard;
  FlatParams sequential = RunFedAvg(/*threads=*/1, /*rounds=*/5);
  FlatParams parallel = RunFedAvg(/*threads=*/4, /*rounds=*/5);
  ExpectParamsBitEqual(sequential, parallel);
}

TEST(ParallelDeterminismTest, FedCrossIsThreadCountInvariant) {
  FlThreadsGuard guard;
  FlatParams sequential = RunFedCross(/*threads=*/1, /*rounds=*/5);
  FlatParams parallel = RunFedCross(/*threads=*/4, /*rounds=*/5);
  ExpectParamsBitEqual(sequential, parallel);
}

TEST(ParallelDeterminismTest, EvaluationIsThreadCountInvariant) {
  // Parallel evaluation shards test batches across replicas but reduces the
  // per-batch partials in batch order, so loss and accuracy are exactly
  // equal at every thread count.
  FlThreadsGuard guard;
  SetFlThreads(1);
  AlgorithmConfig config = ToyConfig();
  config.eval_batch_size = 7;  // 40 test examples -> 6 uneven batches
  FedAvg fedavg(config, MakeToyFederated(8, 40, 4, 41), LinearFactory(4));
  for (int r = 0; r < 2; ++r) fedavg.RunRound(r);
  FlatParams params = fedavg.GlobalParams();

  EvalResult serial = fedavg.Evaluate(params);
  SetFlThreads(4);
  EvalResult four = fedavg.Evaluate(params);
  SetFlThreads(3);
  EvalResult three = fedavg.Evaluate(params);
  SetFlThreads(2);  // 3 runners over the 6 batches
  EvalResult two = fedavg.Evaluate(params);

  EXPECT_EQ(serial.loss, four.loss);
  EXPECT_EQ(serial.accuracy, four.accuracy);
  EXPECT_EQ(serial.loss, three.loss);
  EXPECT_EQ(serial.accuracy, three.accuracy);
  EXPECT_EQ(serial.loss, two.loss);
  EXPECT_EQ(serial.accuracy, two.accuracy);
}

TEST(ParallelDeterminismTest, OddThreadCountMatchesToo) {
  // The schedule changes completely between 3 and 4 threads; the params
  // must not.
  FlThreadsGuard guard;
  FlatParams three = RunFedCross(/*threads=*/3, /*rounds=*/3);
  FlatParams four = RunFedCross(/*threads=*/4, /*rounds=*/3);
  ExpectParamsBitEqual(three, four);
}

// A config that exercises every fault class at once: dropout, straggler
// racing a deadline, Byzantine sign-flip corruption, over-provisioned
// selection, server-side screening, and a robust aggregator. All fault
// draws come from the per-slot fault stream, so the whole stack must stay
// bit-identical across thread counts.
AlgorithmConfig FaultyConfig() {
  AlgorithmConfig config = ToyConfig();
  config.faults.profile.dropout_prob = 0.1;
  config.faults.profile.straggler_prob = 0.3;
  config.faults.profile.slowdown_min = 2.0;
  config.faults.profile.slowdown_max = 8.0;
  config.faults.round_deadline = 5.0;
  config.faults.profile.corrupt_prob = 0.25;
  config.faults.profile.corruption = CorruptionKind::kSignFlip;
  config.faults.profile.corruption_scale = 10.0f;
  config.faults.over_provision = 1;
  config.screening.check_finite = true;
  config.screening.max_update_norm = 50.0f;
  config.aggregator.kind = AggregatorKind::kTrimmedMean;
  config.aggregator.trim_ratio = 0.25;
  return config;
}

TEST(ParallelDeterminismTest, FaultInjectionIsThreadCountInvariant) {
  FlThreadsGuard guard;
  auto run = [](int threads) {
    SetFlThreads(threads);
    FedAvg fedavg(FaultyConfig(), MakeToyFederated(8, 40, 4, 41),
                  LinearFactory(4));
    for (int r = 0; r < 5; ++r) fedavg.RunRound(r);
    return fedavg.GlobalParams();
  };
  FlatParams one = run(1);
  FlatParams two = run(2);
  FlatParams four = run(4);
  ExpectParamsBitEqual(one, two);
  ExpectParamsBitEqual(one, four);
}

TEST(ParallelDeterminismTest, FaultyFedCrossIsThreadCountInvariant) {
  FlThreadsGuard guard;
  auto run = [](int threads) {
    SetFlThreads(threads);
    core::FedCrossOptions options;
    options.alpha = 0.9;
    core::FedCross fedcross(FaultyConfig(), MakeToyFederated(8, 40, 4, 41),
                            LinearFactory(4), options);
    for (int r = 0; r < 5; ++r) fedcross.RunRound(r);
    return fedcross.GlobalParams();
  };
  FlatParams one = run(1);
  FlatParams two = run(2);
  FlatParams four = run(4);
  ExpectParamsBitEqual(one, two);
  ExpectParamsBitEqual(one, four);
}

// --------------------------------------------------------------------------
// Differential-privacy determinism
// --------------------------------------------------------------------------

// DP noise is drawn from the dedicated per-(seed, round, salt, slot)
// privacy stream (privacy/dp.h), never from the training rng — so a noised
// run must be bit-identical across thread counts, exactly like the fault
// and codec streams.
TEST(ParallelDeterminismTest, DpNoiseIsThreadCountInvariant) {
  FlThreadsGuard guard;
  auto run = [](int threads) {
    SetFlThreads(threads);
    AlgorithmConfig config = ToyConfig();
    config.dp.clip_norm = 0.5f;
    config.dp.noise_multiplier = 1.0f;
    FedAvg fedavg(config, MakeToyFederated(8, 40, 4, 41), LinearFactory(4));
    for (int r = 0; r < 5; ++r) fedavg.RunRound(r);
    return fedavg.GlobalParams();
  };
  FlatParams one = run(1);
  FlatParams two = run(2);
  FlatParams four = run(4);
  ExpectParamsBitEqual(one, two);
  ExpectParamsBitEqual(one, four);
}

TEST(ParallelDeterminismTest, DpFedCrossWithFaultsIsThreadCountInvariant) {
  FlThreadsGuard guard;
  auto run = [](int threads) {
    SetFlThreads(threads);
    AlgorithmConfig config = FaultyConfig();
    config.dp.clip_norm = 0.5f;
    config.dp.noise_multiplier = 1.0f;
    config.secure_agg.enabled = true;
    core::FedCrossOptions options;
    options.alpha = 0.9;
    core::FedCross fedcross(config, MakeToyFederated(8, 40, 4, 41),
                            LinearFactory(4), options);
    for (int r = 0; r < 5; ++r) fedcross.RunRound(r);
    return fedcross.GlobalParams();
  };
  FlatParams one = run(1);
  FlatParams two = run(2);
  FlatParams four = run(4);
  ExpectParamsBitEqual(one, two);
  ExpectParamsBitEqual(one, four);
}

// --------------------------------------------------------------------------
// Wire codec determinism
// --------------------------------------------------------------------------

FlatParams RunFedCrossWithCodec(int threads, int rounds,
                                comm::Scheme scheme) {
  SetFlThreads(threads);
  AlgorithmConfig config = ToyConfig();
  config.codec.scheme = scheme;
  config.codec.topk_fraction = 0.25;
  core::FedCrossOptions options;
  options.alpha = 0.9;
  core::FedCross fedcross(config, MakeToyFederated(8, 40, 4, 41),
                          LinearFactory(4), options);
  for (int r = 0; r < rounds; ++r) fedcross.RunRound(r);
  return fedcross.GlobalParams();
}

TEST(ParallelDeterminismTest, EveryCodecSchemeIsThreadCountInvariant) {
  // The stochastic rounding draws come from the per-(round, client) codec
  // stream and the error-feedback residuals are indexed by client id, so a
  // lossy uplink must not reintroduce schedule sensitivity.
  FlThreadsGuard guard;
  for (comm::Scheme scheme :
       {comm::Scheme::kDelta, comm::Scheme::kInt8, comm::Scheme::kTopK,
        comm::Scheme::kInt8TopK}) {
    SCOPED_TRACE(comm::SchemeName(scheme));
    FlatParams sequential = RunFedCrossWithCodec(1, /*rounds=*/4, scheme);
    FlatParams parallel = RunFedCrossWithCodec(4, /*rounds=*/4, scheme);
    ExpectParamsBitEqual(sequential, parallel);
  }
}

TEST(ParallelDeterminismTest, DeltaCodecTrainsIdenticallyToIdentity) {
  // The delta codec is lossless, so the entire federation must be
  // bit-identical to the uncoded run -- only the wire bytes differ.
  FlThreadsGuard guard;
  FlatParams identity =
      RunFedCrossWithCodec(2, /*rounds=*/4, comm::Scheme::kIdentity);
  FlatParams delta =
      RunFedCrossWithCodec(2, /*rounds=*/4, comm::Scheme::kDelta);
  ExpectParamsBitEqual(identity, delta);
}

}  // namespace
}  // namespace fedcross::fl
