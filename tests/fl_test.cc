#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <memory>
#include <set>

#include "data/partition.h"
#include "fl/algorithm.h"
#include "fl/client.h"
#include "fl/clusamp.h"
#include "fl/comm_tracker.h"
#include "fl/evaluator.h"
#include "fl/fedavg.h"
#include "fl/fedcluster.h"
#include "fl/fedgen.h"
#include "fl/history.h"
#include "fl/scaffold.h"
#include "nn/linear.h"
#include "test_util.h"

namespace fedcross::fl {
namespace {

// Logistic-regression factory over `dim` features, 2 classes.
models::ModelFactory LinearFactory(int dim, std::uint64_t seed = 1) {
  return [dim, seed]() {
    util::Rng rng(seed);
    nn::Sequential model;
    model.Add(std::make_unique<nn::Linear>(dim, 2, rng));
    return model;
  };
}

// Small two-class federated corpus. With label_skew, client i is dominated
// by class i%2 (non-IID); otherwise clients are IID.
data::FederatedDataset MakeToyFederated(int num_clients, int per_client,
                                        int dim, bool label_skew,
                                        std::uint64_t seed) {
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
      int k;
      if (label_skew) {
        k = rng.Uniform() < 0.9 ? c % 2 : 1 - c % 2;
      } else {
        k = static_cast<int>(rng.UniformInt(2));
      }
      gen_example(k, features);
      labels.push_back(k);
    }
    federated.client_train.push_back(std::make_shared<data::InMemoryDataset>(
        Tensor::Shape{dim}, std::move(features), std::move(labels), 2));
  }
  std::vector<float> features;
  std::vector<int> labels;
  for (int i = 0; i < 100; ++i) {
    int k = i % 2;
    gen_example(k, features);
    labels.push_back(k);
  }
  federated.test = std::make_shared<data::InMemoryDataset>(
      Tensor::Shape{dim}, std::move(features), std::move(labels), 2);
  return federated;
}

AlgorithmConfig ToyConfig(int k = 4) {
  AlgorithmConfig config;
  config.clients_per_round = k;
  config.train.local_epochs = 2;
  config.train.batch_size = 10;
  config.train.lr = 0.05f;
  config.train.momentum = 0.5f;
  config.seed = 11;
  return config;
}

// ----------------------------------------------------------------- Client

TEST(FlClientTest, TrainingImprovesLocalFit) {
  auto dataset = testing::MakeToyDataset(30, 4, 0.4f, 3);
  FlClient client(0, dataset);
  models::ModelFactory factory = LinearFactory(4);
  nn::Sequential probe = factory();
  FlatParams init = probe.ParamsToFlat();

  ClientTrainSpec spec;
  spec.options.local_epochs = 5;
  spec.options.batch_size = 10;
  spec.options.lr = 0.1f;
  util::Rng rng(1);
  LocalTrainResult result = client.Train(factory, init, spec, rng);

  EXPECT_EQ(result.num_samples, 60);
  EXPECT_EQ(result.num_steps, 5 * 6);
  EXPECT_NE(result.params, init);
  EvalResult before = EvaluateParams(factory, init, *dataset);
  EvalResult after = EvaluateParams(factory, result.params, *dataset);
  EXPECT_LT(after.loss, before.loss);
  EXPECT_GT(after.accuracy, 0.9f);
}

TEST(FlClientTest, ProxTermAnchorsParameters) {
  auto dataset = testing::MakeToyDataset(30, 4, 0.4f, 4);
  FlClient client(0, dataset);
  models::ModelFactory factory = LinearFactory(4);
  FlatParams init = factory().ParamsToFlat();

  auto drift = [&](float mu) {
    ClientTrainSpec spec;
    spec.options.local_epochs = 5;
    spec.options.lr = 0.1f;
    spec.options.batch_size = 10;
    spec.prox_anchor = &init;
    spec.prox_mu = mu;
    util::Rng rng(2);
    LocalTrainResult result = client.Train(factory, init, spec, rng);
    double total = 0.0;
    for (std::size_t i = 0; i < init.size(); ++i) {
      total += (result.params[i] - init[i]) * (result.params[i] - init[i]);
    }
    return std::sqrt(total);
  };
  // A strong proximal term must keep the model closer to the anchor.
  EXPECT_LT(drift(10.0f), drift(0.0f) * 0.6);
}

TEST(FlClientTest, ScaffoldCorrectionShiftsResult) {
  auto dataset = testing::MakeToyDataset(30, 4, 0.4f, 5);
  FlClient client(0, dataset);
  models::ModelFactory factory = LinearFactory(4);
  FlatParams init = factory().ParamsToFlat();

  ClientTrainSpec plain;
  plain.options.local_epochs = 2;
  plain.options.lr = 0.05f;
  util::Rng rng1(3), rng2(3);
  LocalTrainResult base = client.Train(factory, init, plain, rng1);

  FlatParams correction(init.size(), 0.1f);
  ClientTrainSpec corrected = plain;
  corrected.scaffold_correction = &correction;
  LocalTrainResult shifted = client.Train(factory, init, corrected, rng2);
  EXPECT_NE(base.params, shifted.params);
}

TEST(FlClientTest, DeterministicGivenSameRngState) {
  auto dataset = testing::MakeToyDataset(20, 4, 0.4f, 6);
  FlClient client(0, dataset);
  models::ModelFactory factory = LinearFactory(4);
  FlatParams init = factory().ParamsToFlat();
  ClientTrainSpec spec;
  spec.options.local_epochs = 2;

  util::Rng rng_a(7), rng_b(7);
  LocalTrainResult a = client.Train(factory, init, spec, rng_a);
  LocalTrainResult b = client.Train(factory, init, spec, rng_b);
  EXPECT_EQ(a.params, b.params);
}

// -------------------------------------------------------------- Evaluator

TEST(EvaluatorTest, PerfectLinearModelScoresFull) {
  auto dataset = testing::MakeToyDataset(50, 2, 0.1f, 8);
  models::ModelFactory factory = LinearFactory(2);
  // Hand-build a separating hyperplane: logit_1 - logit_0 = 4*(x0 + x1).
  nn::Sequential model = factory();
  FlatParams params = model.ParamsToFlat();
  // Layout: W[2x2] row-major then b[2]. W = [[-2, 2], [-2, 2]].
  params = {-2.0f, 2.0f, -2.0f, 2.0f, 0.0f, 0.0f};
  EvalResult result = EvaluateParams(factory, params, *dataset);
  EXPECT_GT(result.accuracy, 0.99f);
  EXPECT_LT(result.loss, 0.1f);
}

TEST(EvaluatorTest, RandomModelNearChance) {
  auto dataset = testing::MakeToyDataset(200, 2, 0.1f, 9);
  models::ModelFactory factory = LinearFactory(2, /*seed=*/5);
  FlatParams zero(factory().NumParams(), 0.0f);
  EvalResult result = EvaluateParams(factory, zero, *dataset);
  EXPECT_NEAR(result.loss, std::log(2.0f), 1e-4f);
}

// ------------------------------------------------------------ CommTracker

TEST(CommTrackerTest, RoundAndTotalCounters) {
  CommTracker tracker;
  tracker.BeginRound();
  tracker.AddDownload(/*raw_bytes=*/100, /*wire_bytes=*/80);
  tracker.AddUpload(/*raw_bytes=*/50, /*wire_bytes=*/10);
  EXPECT_EQ(tracker.round_download_bytes(), 100u);
  EXPECT_EQ(tracker.round_upload_bytes(), 50u);
  EXPECT_EQ(tracker.round_wire_download_bytes(), 80u);
  EXPECT_EQ(tracker.round_wire_upload_bytes(), 10u);
  tracker.BeginRound();
  EXPECT_EQ(tracker.round_download_bytes(), 0u);
  EXPECT_EQ(tracker.round_wire_upload_bytes(), 0u);
  EXPECT_EQ(tracker.total_download_bytes(), 100u);
  EXPECT_EQ(tracker.total_upload_bytes(), 50u);
  EXPECT_EQ(tracker.total_wire_download_bytes(), 80u);
  EXPECT_EQ(tracker.total_wire_upload_bytes(), 10u);
}

TEST(CommTrackerTest, CountsStayExactPastDoublePrecision) {
  // 2^53 + 1 is where double-backed counters used to silently round.
  CommTracker tracker;
  tracker.AddDownload((1ULL << 53) + 1, 0);
  tracker.AddDownload(1, 0);
  EXPECT_EQ(tracker.total_download_bytes(), (1ULL << 53) + 2);
}

TEST(CommTrackerTest, RestoreResetsRoundCounters) {
  CommTracker tracker;
  tracker.AddUpload(7, 3);
  tracker.Restore(1000, 2000, 800, 400, 60, 30);
  EXPECT_EQ(tracker.round_upload_bytes(), 0u);
  EXPECT_EQ(tracker.total_download_bytes(), 1000u);
  EXPECT_EQ(tracker.total_upload_bytes(), 2000u);
  EXPECT_EQ(tracker.total_wire_download_bytes(), 800u);
  EXPECT_EQ(tracker.total_wire_upload_bytes(), 400u);
  EXPECT_EQ(tracker.total_wasted_bytes(), 60u);
  EXPECT_EQ(tracker.total_wire_wasted_bytes(), 30u);
}

TEST(CommTrackerTest, FloatBytes) {
  EXPECT_EQ(CommTracker::FloatBytes(10), 40u);
}

// ---------------------------------------------------------------- History

TEST(MetricsHistoryTest, BestAndFinalAccuracy) {
  MetricsHistory history;
  for (int r = 1; r <= 10; ++r) {
    RoundRecord record;
    record.round = r;
    record.test_accuracy = r == 7 ? 0.9f : 0.1f * r;
    history.Add(record);
  }
  EXPECT_FLOAT_EQ(history.BestAccuracy(), 1.0f);
  EXPECT_EQ(history.RoundsToAccuracy(0.65f), 7);
  EXPECT_EQ(history.RoundsToAccuracy(2.0f), -1);
  EXPECT_GT(history.FinalAccuracy(3), 0.7f);
}

TEST(MetricsHistoryTest, WriteCsv) {
  MetricsHistory history;
  RoundRecord record;
  record.round = 1;
  record.test_accuracy = 0.5f;
  history.Add(record);
  std::string path = ::testing::TempDir() + "/history.csv";
  ASSERT_TRUE(history.WriteCsv(path, "FedAvg").ok());
  std::ifstream in(path);
  std::string header, row;
  std::getline(in, header);
  std::getline(in, row);
  EXPECT_NE(header.find("test_accuracy"), std::string::npos);
  EXPECT_NE(row.find("FedAvg"), std::string::npos);
  std::remove(path.c_str());
}

// ----------------------------------------------------------------- FedAvg

TEST(FedAvgTest, LearnsToyProblem) {
  FedAvg fedavg(ToyConfig(), MakeToyFederated(8, 40, 4, false, 21),
                LinearFactory(4));
  const MetricsHistory& history = fedavg.Run(8);
  EXPECT_GT(history.BestAccuracy(), 0.9f);
}

TEST(FedAvgTest, CommunicationIs2KModels) {
  AlgorithmConfig config = ToyConfig(4);
  FedAvg fedavg(config, MakeToyFederated(8, 20, 4, false, 22),
                LinearFactory(4));
  fedavg.Run(1);
  double model_bytes = CommTracker::FloatBytes(fedavg.model_size());
  const RoundRecord& record = fedavg.history().records().back();
  EXPECT_EQ(record.bytes_down, 4 * model_bytes);
  EXPECT_EQ(record.bytes_up, 4 * model_bytes);
}

TEST(FedAvgTest, GlobalIsWeightedAverageOfClientModels) {
  // With one client per round, the new global equals that client's model.
  AlgorithmConfig config = ToyConfig(1);
  FedAvg fedavg(config, MakeToyFederated(3, 20, 4, false, 23),
                LinearFactory(4));
  fedavg.Run(1);
  // Smoke: global parameters moved away from init.
  FlatParams init = LinearFactory(4)().ParamsToFlat();
  EXPECT_NE(fedavg.GlobalParams(), init);
}

TEST(WeightedAverageTest, Arithmetic) {
  // The protected static aggregation kernels, exposed through a tiny
  // FedAvg subclass.
  struct Probe : FedAvg {
    using FedAvg::AverageInto;
    using FedAvg::FedAvg;
    using FedAvg::WeightedAverageInto;
  };
  FlatParams a = {1.0f, 2.0f};
  FlatParams b = {3.0f, 6.0f};
  FlatParams out;
  Probe::AverageInto({&a, &b}, out);
  EXPECT_EQ(out, (FlatParams{2.0f, 4.0f}));
  Probe::WeightedAverageInto({&a, &b}, {3.0, 1.0}, out);
  EXPECT_EQ(out, (FlatParams{1.5f, 3.0f}));
}

// ---------------------------------------------------------------- FedProx

TEST(FedProxTest, RunsAndLearns) {
  FedProx fedprox(ToyConfig(), MakeToyFederated(8, 40, 4, true, 24),
                  LinearFactory(4), /*mu=*/0.01f);
  const MetricsHistory& history = fedprox.Run(8);
  EXPECT_GT(history.BestAccuracy(), 0.85f);
  EXPECT_EQ(fedprox.name(), "FedProx");
}

// --------------------------------------------------------------- SCAFFOLD

TEST(ScaffoldTest, RunsAndLearns) {
  Scaffold scaffold(ToyConfig(), MakeToyFederated(8, 40, 4, true, 25),
                    LinearFactory(4));
  const MetricsHistory& history = scaffold.Run(8);
  EXPECT_GT(history.BestAccuracy(), 0.85f);
}

TEST(ScaffoldTest, CommunicationIsDoubleFedAvg) {
  AlgorithmConfig config = ToyConfig(4);
  Scaffold scaffold(config, MakeToyFederated(8, 20, 4, false, 26),
                    LinearFactory(4));
  scaffold.Run(1);
  double model_bytes = CommTracker::FloatBytes(scaffold.model_size());
  const RoundRecord& record = scaffold.history().records().back();
  // Model + control variate in each direction.
  EXPECT_EQ(record.bytes_down, 2 * 4 * model_bytes);
  EXPECT_EQ(record.bytes_up, 2 * 4 * model_bytes);
}

TEST(ScaffoldTest, ServerVariateBecomesNonZero) {
  Scaffold scaffold(ToyConfig(4), MakeToyFederated(8, 20, 4, true, 27),
                    LinearFactory(4));
  scaffold.Run(2);
  double norm = 0.0;
  for (float v : scaffold.server_variate()) norm += std::abs(v);
  EXPECT_GT(norm, 0.0);
}

// ---------------------------------------------------------------- CluSamp

TEST(CluSampTest, RunsAndLearns) {
  CluSamp clusamp(ToyConfig(), MakeToyFederated(8, 40, 4, true, 28),
                  LinearFactory(4));
  const MetricsHistory& history = clusamp.Run(8);
  EXPECT_GT(history.BestAccuracy(), 0.85f);
}

TEST(CluSampTest, AssignmentCoversAllClusters) {
  AlgorithmConfig config = ToyConfig(3);
  CluSamp clusamp(config, MakeToyFederated(9, 20, 4, true, 29),
                  LinearFactory(4));
  clusamp.Run(3);
  const std::vector<int>& assignment = clusamp.cluster_assignment();
  ASSERT_EQ(assignment.size(), 9u);
  std::set<int> clusters(assignment.begin(), assignment.end());
  EXPECT_EQ(clusters.size(), 3u);
  for (int c : assignment) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 3);
  }
}

// ----------------------------------------------------------------- FedGen

TEST(FedGenTest, RunsAndLearns) {
  FedGen fedgen(ToyConfig(), MakeToyFederated(8, 40, 4, true, 30),
                LinearFactory(4));
  const MetricsHistory& history = fedgen.Run(8);
  EXPECT_GT(history.BestAccuracy(), 0.85f);
}

TEST(FedGenTest, GeneratorPayloadIncreasesDownload) {
  AlgorithmConfig config = ToyConfig(4);
  data::FederatedDataset data = MakeToyFederated(8, 20, 4, false, 31);
  FedGen fedgen(config, std::move(data), LinearFactory(4));
  fedgen.Run(2);  // generator dispatched from round 2 on
  double model_bytes = CommTracker::FloatBytes(fedgen.model_size());
  double generator_bytes = CommTracker::FloatBytes(fedgen.generator_size());
  const RoundRecord& record = fedgen.history().records().back();
  EXPECT_EQ(record.bytes_down, 4 * (model_bytes + generator_bytes));
  EXPECT_EQ(record.bytes_up, 4 * model_bytes);
}


// -------------------------------------------------------------- FedCluster

TEST(FedClusterTest, RunsAndLearns) {
  FedCluster fedcluster(ToyConfig(4), MakeToyFederated(8, 40, 4, true, 34),
                        LinearFactory(4), /*num_clusters=*/2);
  const MetricsHistory& history = fedcluster.Run(8);
  EXPECT_GT(history.BestAccuracy(), 0.85f);
}

TEST(FedClusterTest, ClustersPartitionClients) {
  FedCluster fedcluster(ToyConfig(4), MakeToyFederated(9, 10, 4, false, 35),
                        LinearFactory(4), /*num_clusters=*/3);
  std::set<int> seen;
  std::size_t total = 0;
  for (const auto& cluster : fedcluster.clusters()) {
    seen.insert(cluster.begin(), cluster.end());
    total += cluster.size();
  }
  EXPECT_EQ(seen.size(), 9u);
  EXPECT_EQ(total, 9u);
  EXPECT_EQ(fedcluster.clusters().size(), 3u);
}

TEST(FedClusterTest, CommunicationStaysLow) {
  // One cycle trains ~K clients total: 2K model payloads, like FedAvg.
  AlgorithmConfig config = ToyConfig(4);
  FedCluster fedcluster(config, MakeToyFederated(8, 20, 4, false, 36),
                        LinearFactory(4), /*num_clusters=*/2);
  fedcluster.Run(1);
  double model_bytes = CommTracker::FloatBytes(fedcluster.model_size());
  const RoundRecord& record = fedcluster.history().records().back();
  EXPECT_EQ(record.bytes_down, 4 * model_bytes);
  EXPECT_EQ(record.bytes_up, 4 * model_bytes);
}

// -------------------------------------------------------- Base invariants

TEST(FlAlgorithmTest, SampleClientsAreDistinctAndInRange) {
  struct Probe : FedAvg {
    using FedAvg::FedAvg;
    using FedAvg::SampleClients;
  };
  Probe probe(ToyConfig(5), MakeToyFederated(12, 10, 4, false, 32),
              LinearFactory(4));
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::int64_t> sample = probe.SampleClients();
    std::set<std::int64_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 5u);
    for (std::int64_t id : sample) {
      EXPECT_GE(id, 0);
      EXPECT_LT(id, 12);
    }
  }
}

TEST(FlAlgorithmTest, EvalEveryThinsHistory) {
  FedAvg fedavg(ToyConfig(2), MakeToyFederated(4, 10, 4, false, 33),
                LinearFactory(4));
  fedavg.Run(6, /*eval_every=*/3);
  EXPECT_EQ(fedavg.history().records().size(), 2u);
}

}  // namespace
}  // namespace fedcross::fl
