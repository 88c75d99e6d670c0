// The million-client scaling stack: Floyd's O(K) sampler, the virtual
// (materialise-on-demand) client population, the spillable cold-state store,
// and the range-sharded aggregators. The contract under test throughout is
// bit-identity — residency, sampling routine (when pinned), spill pressure
// and thread count are performance knobs, never simulation inputs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "comm/wire.h"
#include "core/fedcross.h"
#include "data/dataset.h"
#include "fl/algorithm.h"
#include "fl/clusamp.h"
#include "fl/fedavg.h"
#include "fl/fedcluster.h"
#include "fl/fedgen.h"
#include "fl/scaffold.h"
#include "fl/state_store.h"
#include "nn/linear.h"
#include "test_util.h"
#include "util/rng.h"

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

// A pure-in-id shard factory (the virtual-population contract): the id seeds
// the generator, so materialising a shard twice yields bit-identical data.
data::ShardFactory ToyShardFactory(int dim, int per_client,
                                   std::uint64_t seed) {
  return [dim, per_client, seed](std::int64_t id) {
    util::Rng rng(seed ^ (static_cast<std::uint64_t>(id) + 1) *
                             0x9e3779b97f4a7c15ULL);
    std::vector<float> features;
    std::vector<int> labels;
    int majority = static_cast<int>(((id % 2) + 2) % 2);
    for (int i = 0; i < per_client; ++i) {
      int k = rng.Uniform() < 0.9 ? majority : 1 - majority;
      float mean = k == 0 ? -1.0f : 1.0f;
      for (int d = 0; d < dim; ++d) {
        features.push_back(mean + static_cast<float>(rng.Normal(0.0, 0.6)));
      }
      labels.push_back(k);
    }
    return std::make_shared<data::InMemoryDataset>(
        Tensor::Shape{dim}, std::move(features), std::move(labels), 2);
  };
}

data::FederatedDataset MakeVirtualToy(std::int64_t num_clients, int dim,
                                      int per_client) {
  data::FederatedDataset federated;
  federated.num_classes = 2;
  federated.virtual_clients = num_clients;
  federated.make_shard = ToyShardFactory(dim, per_client, /*seed=*/41);
  util::Rng rng(7);
  std::vector<float> features;
  std::vector<int> labels;
  for (int i = 0; i < 40; ++i) {
    int k = i % 2;
    float mean = k == 0 ? -1.0f : 1.0f;
    for (int d = 0; d < dim; ++d) {
      features.push_back(mean + static_cast<float>(rng.Normal(0.0, 0.6)));
    }
    labels.push_back(k);
  }
  federated.test = std::make_shared<data::InMemoryDataset>(
      Tensor::Shape{dim}, std::move(features), std::move(labels), 2);
  return federated;
}

AlgorithmConfig ScaleConfig() {
  AlgorithmConfig config;
  config.clients_per_round = 4;
  config.train.local_epochs = 1;
  config.train.batch_size = 10;
  config.train.lr = 0.05f;
  config.seed = 23;
  // Pin the sampler: resident mode would otherwise auto-select the legacy
  // full shuffle, which draws a different (equally uniform) cohort.
  config.sampler = ClientSampler::kFloyd;
  return config;
}

struct FlThreadsGuard {
  ~FlThreadsGuard() { SetFlThreads(1); }
};

using testing::ExpectParamsBitEqual;

// Builds each of the repo's algorithms over the given config + federation.
using ServerFactory = std::function<std::unique_ptr<FlAlgorithm>(
    AlgorithmConfig, data::FederatedDataset)>;

std::vector<std::pair<std::string, ServerFactory>> AllAlgorithms(int dim) {
  models::ModelFactory factory = LinearFactory(dim);
  std::vector<std::pair<std::string, ServerFactory>> algorithms;
  algorithms.emplace_back(
      "FedAvg", [factory](AlgorithmConfig config, data::FederatedDataset d) {
        return std::make_unique<FedAvg>(config, std::move(d), factory);
      });
  algorithms.emplace_back(
      "FedProx", [factory](AlgorithmConfig config, data::FederatedDataset d) {
        return std::make_unique<FedProx>(config, std::move(d), factory,
                                         /*mu=*/0.1f);
      });
  algorithms.emplace_back(
      "Scaffold", [factory](AlgorithmConfig config, data::FederatedDataset d) {
        return std::make_unique<Scaffold>(config, std::move(d), factory);
      });
  algorithms.emplace_back(
      "FedGen", [factory](AlgorithmConfig config, data::FederatedDataset d) {
        FedGen::Options options;
        options.generator_steps_per_round = 5;
        options.synthetic_samples = 16;
        return std::make_unique<FedGen>(config, std::move(d), factory,
                                        options);
      });
  algorithms.emplace_back(
      "CluSamp", [factory](AlgorithmConfig config, data::FederatedDataset d) {
        return std::make_unique<CluSamp>(config, std::move(d), factory,
                                         /*kmeans_iters=*/3);
      });
  algorithms.emplace_back(
      "FedCluster",
      [factory](AlgorithmConfig config, data::FederatedDataset d) {
        return std::make_unique<FedCluster>(config, std::move(d), factory,
                                            /*num_clusters=*/2);
      });
  algorithms.emplace_back(
      "FedCross", [factory](AlgorithmConfig config, data::FederatedDataset d) {
        core::FedCrossOptions options;
        options.alpha = 0.9;
        return std::make_unique<core::FedCross>(config, std::move(d), factory,
                                                options);
      });
  return algorithms;
}

// ------------------------------------------------------------ Floyd sampler

TEST(ScaleTest, FloydSamplerFollowsDocumentedDrawOrder) {
  // The draw order is part of the checkpoint contract (a resumed run must
  // continue the exact sequence), so it is pinned here against the
  // documented recipe: k draws UniformInt(j + 1) for j = n-k .. n-1, taking
  // j itself on a collision.
  const std::int64_t n = std::int64_t{1} << 40;
  const std::int64_t k = 64;
  util::Rng rng(99);
  util::Rng twin(99);
  std::vector<std::int64_t> sample = rng.SampleDistinct(n, k);
  std::set<std::int64_t> chosen;
  std::vector<std::int64_t> expected;
  for (std::int64_t j = n - k; j < n; ++j) {
    auto t = static_cast<std::int64_t>(
        twin.UniformInt(static_cast<std::uint64_t>(j) + 1));
    if (!chosen.insert(t).second) {
      chosen.insert(j);
      expected.push_back(j);
    } else {
      expected.push_back(t);
    }
  }
  EXPECT_EQ(sample, expected);
  std::set<std::int64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(k));
  for (std::int64_t id : sample) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, n);
  }
}

TEST(ScaleTest, AutoSamplerResolvesByPopulationMode) {
  struct Probe : FedAvg {
    using FedAvg::FedAvg;
    using FedAvg::SampleClients;
  };
  auto make = [](PopulationMode mode, ClientSampler sampler) {
    AlgorithmConfig config = ScaleConfig();
    config.sampler = sampler;
    config.population = mode;
    config.clients_per_round = 8;
    return std::make_unique<Probe>(config, MakeVirtualToy(100000, 4, 10),
                                   LinearFactory(4));
  };
  // Resident + kAuto keeps the historical full-shuffle sequence (existing
  // seeds and golden results stay valid)...
  auto resident_auto = make(PopulationMode::kResident, ClientSampler::kAuto);
  auto resident_legacy =
      make(PopulationMode::kResident, ClientSampler::kFullShuffle);
  EXPECT_EQ(resident_auto->SampleClients(), resident_legacy->SampleClients());
  // ...and virtual + kAuto switches to Floyd's O(K) draw.
  auto virtual_auto = make(PopulationMode::kVirtual, ClientSampler::kAuto);
  auto virtual_floyd = make(PopulationMode::kVirtual, ClientSampler::kFloyd);
  EXPECT_EQ(virtual_auto->SampleClients(), virtual_floyd->SampleClients());
  // The two routines draw different cohorts from the same generator state.
  auto resident_floyd =
      make(PopulationMode::kResident, ClientSampler::kFloyd);
  EXPECT_NE(resident_legacy->SampleClients(),
            resident_floyd->SampleClients());
}

// ------------------------------------------------- virtual == resident

TEST(ScaleTest, VirtualPopulationIsBitIdenticalToResident) {
  // The headline contract: for every algorithm, materialising sampled
  // clients on demand (and dropping them after the round) trains
  // bit-identically to the everything-in-RAM layout, at every thread count.
  FlThreadsGuard guard;
  for (auto& [name, make] : AllAlgorithms(4)) {
    SCOPED_TRACE(name);
    for (int threads : {1, 4}) {
      SCOPED_TRACE("fl_threads=" + std::to_string(threads));
      SetFlThreads(threads);
      AlgorithmConfig resident_config = ScaleConfig();
      resident_config.population = PopulationMode::kResident;
      AlgorithmConfig virtual_config = ScaleConfig();
      virtual_config.population = PopulationMode::kVirtual;
      auto resident = make(resident_config, MakeVirtualToy(8, 4, 40));
      auto virtualized = make(virtual_config, MakeVirtualToy(8, 4, 40));
      for (int r = 0; r < 3; ++r) {
        resident->RunRound(r);
        virtualized->RunRound(r);
      }
      ExpectParamsBitEqual(resident->GlobalParams(),
                         virtualized->GlobalParams());
      // Resident holds all N; virtual holds only the cohort the cache has
      // not yet aged out.
      EXPECT_EQ(resident->population().resident_clients(), 8);
      EXPECT_LE(virtualized->population().resident_clients(), 8);
      EXPECT_GT(virtualized->population().materializations(), 0);
    }
  }
}

TEST(ScaleTest, HugePopulationRegistersBeyondIntRange) {
  // Registration is O(1) in N: five billion ids (beyond 32-bit range)
  // cost nothing until sampled, and only the cohort is ever resident.
  FlThreadsGuard guard;
  SetFlThreads(1);
  const std::int64_t n = std::int64_t{5} * 1000 * 1000 * 1000;
  AlgorithmConfig config = ScaleConfig();
  config.population = PopulationMode::kVirtual;
  config.clients_per_round = 2;
  FedAvg server(config, MakeVirtualToy(n, 4, 10), LinearFactory(4));
  EXPECT_EQ(server.num_clients(), n);
  server.RunRound(0);
  EXPECT_LE(server.population().resident_clients(), 4);
  FlatParams params = server.GlobalParams();
  ASSERT_FALSE(params.empty());
  for (float v : params) EXPECT_TRUE(std::isfinite(v));
}

// ----------------------------------------------------------- state store

TEST(ScaleTest, StateStoreSpillsAndFaultsInBitExact) {
  ClientStateStore store;
  StateStoreOptions options;
  options.max_resident = 2;
  store.Configure(options);
  auto fill = [](FlatParams& value, std::int64_t id) {
    value.assign(16, 0.0f);
    for (int i = 0; i < 16; ++i) {
      value[static_cast<std::size_t>(i)] =
          static_cast<float>(id) + static_cast<float>(i) * 0.25f;
    }
  };
  for (std::int64_t id = 0; id < 8; ++id) fill(store.Touch(id * 100), id);
  EXPECT_EQ(store.touched(), 8);
  EXPECT_EQ(store.spills(), 0);

  // Eviction happens only at the batch boundary, down to max_resident.
  store.BeginBatch();
  EXPECT_EQ(store.resident(), 2);
  EXPECT_EQ(store.spills(), 6);

  // Read() serves cold entries without changing residency.
  FlatParams out;
  for (std::int64_t id = 0; id < 8; ++id) {
    ASSERT_TRUE(store.Read(id * 100, out));
    ASSERT_EQ(out.size(), 16u);
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(out[static_cast<std::size_t>(i)],
                static_cast<float>(id) + static_cast<float>(i) * 0.25f);
    }
  }
  EXPECT_EQ(store.resident(), 2);
  EXPECT_FALSE(store.Read(12345, out));

  // Touch() faults a spilled entry back in, bit-exact.
  FlatParams& back = store.Touch(300);
  EXPECT_GT(store.faultins(), 0);
  ASSERT_EQ(back.size(), 16u);
  EXPECT_EQ(back[4], 4.0f);  // id 3 pattern: 3 + 4 * 0.25

  // TouchedIds is ascending and residency-independent.
  std::vector<std::int64_t> ids = store.TouchedIds();
  ASSERT_EQ(ids.size(), 8u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], static_cast<std::int64_t>(i) * 100);
  }

  store.Clear();
  EXPECT_EQ(store.touched(), 0);
  EXPECT_FALSE(store.Contains(300));
}

TEST(ScaleTest, SpillPressureDoesNotChangeTraining) {
  // SCAFFOLD variates + codec error-feedback residuals both live in
  // spillable stores; forcing near-total eviction every round must not
  // change a single bit of the training trajectory.
  FlThreadsGuard guard;
  SetFlThreads(2);
  auto run = [](std::int64_t max_resident) {
    AlgorithmConfig config = ScaleConfig();
    config.codec.scheme = comm::Scheme::kInt8TopK;
    config.codec.topk_fraction = 0.25;
    config.state_store.max_resident = max_resident;
    Scaffold scaffold(config, MakeVirtualToy(8, 4, 40), LinearFactory(4));
    for (int r = 0; r < 4; ++r) scaffold.RunRound(r);
    return scaffold.GlobalParams();
  };
  ExpectParamsBitEqual(run(/*max_resident=*/0), run(/*max_resident=*/1));
}

// ------------------------------------------------------ checkpoint/resume

std::unique_ptr<Scaffold> MakeSpillyScaffold() {
  AlgorithmConfig config = ScaleConfig();
  config.codec.scheme = comm::Scheme::kInt8TopK;
  config.codec.topk_fraction = 0.25;
  config.state_store.max_resident = 1;
  return std::make_unique<Scaffold>(config, MakeVirtualToy(8, 4, 40),
                                    LinearFactory(4));
}

TEST(ScaleTest, ResumeWithSpilledStateIsBitIdentical) {
  // Save fires while most variates and residuals sit in the spill file; the
  // checkpoint must capture them (via the residency-independent iteration)
  // and the resumed run must match an uninterrupted one exactly.
  FlThreadsGuard guard;
  SetFlThreads(1);
  std::string path = ::testing::TempDir() + "/scale_spill.fcpt";

  auto full = MakeSpillyScaffold();
  full->Run(6, /*eval_every=*/1);

  {
    auto first = MakeSpillyScaffold();
    first->Run(3, /*eval_every=*/1);
    ASSERT_TRUE(first->SaveCheckpoint(path).ok());
  }
  auto resumed = MakeSpillyScaffold();
  ASSERT_TRUE(resumed->LoadCheckpoint(path).ok());
  EXPECT_EQ(resumed->completed_rounds(), 3);
  resumed->Run(6, /*eval_every=*/1);
  ExpectParamsBitEqual(full->GlobalParams(), resumed->GlobalParams());
}

TEST(ScaleTest, ResumeRoundTripsCluSampHistory) {
  // CluSamp's per-client update history is the other sparse id-keyed
  // table; a virtual-population resume must round-trip it exactly.
  FlThreadsGuard guard;
  SetFlThreads(1);
  std::string path = ::testing::TempDir() + "/scale_clusamp.fcpt";
  auto make = []() {
    return std::make_unique<CluSamp>(ScaleConfig(), MakeVirtualToy(8, 4, 40),
                                     LinearFactory(4), /*kmeans_iters=*/3);
  };
  auto full = make();
  full->Run(5, /*eval_every=*/1);
  {
    auto first = make();
    first->Run(2, /*eval_every=*/1);
    ASSERT_TRUE(first->SaveCheckpoint(path).ok());
  }
  auto resumed = make();
  ASSERT_TRUE(resumed->LoadCheckpoint(path).ok());
  resumed->Run(5, /*eval_every=*/1);
  ExpectParamsBitEqual(full->GlobalParams(), resumed->GlobalParams());
}

// ------------------------------------------------- sharded aggregation

TEST(ScaleTest, ShardedAggregationIsThreadCountInvariant) {
  // The model is sized past the per-range minimums (8202 params > 2 * 4096)
  // so the mean path genuinely splits into multiple ranges and the robust
  // rules into many; every rule must still produce byte-identical output at
  // every thread count, because each coordinate's accumulation order is
  // unchanged — only which thread owns it moves.
  FlThreadsGuard guard;
  const int dim = 4100;
  for (AggregatorKind kind :
       {AggregatorKind::kWeightedMean, AggregatorKind::kTrimmedMean,
        AggregatorKind::kCoordinateMedian, AggregatorKind::kNormClippedMean}) {
    SCOPED_TRACE(AggregatorKindName(kind));
    auto run = [&](int threads) {
      SetFlThreads(threads);
      AlgorithmConfig config = ScaleConfig();
      config.aggregator.kind = kind;
      config.aggregator.trim_ratio = 0.25;
      config.aggregator.clip_norm = 5.0f;
      FedAvg server(config, MakeVirtualToy(6, dim, 10), LinearFactory(dim));
      for (int r = 0; r < 2; ++r) server.RunRound(r);
      return server.GlobalParams();
    };
    FlatParams one = run(1);
    FlatParams four = run(4);
    ExpectParamsBitEqual(one, four);
  }
}

}  // namespace
}  // namespace fedcross::fl
