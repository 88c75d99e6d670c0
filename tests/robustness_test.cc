// Fault injection, upload screening, robust aggregation, and checkpoint
// resume. The invariants under test:
//   * fault draws live on their own RNG stream, so a profile that never
//     fires is bit-identical to no profile at all, and one client's fault
//     cannot perturb the survivors;
//   * screening rejects mangled uploads in every algorithm, degrading them
//     exactly like dropouts (the global model stays finite);
//   * the robust aggregators match hand-computed values;
//   * save -> kill -> load -> resume is bit-identical to an uninterrupted
//     run for all six algorithms.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "comm/wire.h"
#include "core/fedcross.h"
#include "fl/aggregators.h"
#include "fl/algorithm.h"
#include "fl/checkpoint.h"
#include "fl/clusamp.h"
#include "fl/faults.h"
#include "fl/fedavg.h"
#include "fl/fedcluster.h"
#include "fl/fedgen.h"
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

bool AllFinite(const FlatParams& params) {
  for (float x : params) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

// Minimal concrete FlAlgorithm exposing the protected training fan-out, so
// tests can inspect per-slot results directly.
class ProbeAlgorithm : public FlAlgorithm {
 public:
  ProbeAlgorithm(AlgorithmConfig config, data::FederatedDataset data,
                 models::ModelFactory factory)
      : FlAlgorithm("Probe", config, std::move(data), std::move(factory)) {}

  void RunRound(int round) override { (void)round; }
  FlatParams GlobalParams() override { return InitialParams(); }

  using FlAlgorithm::ClientJob;
  using FlAlgorithm::InitialParams;
  using FlAlgorithm::TrainClients;
};

// --------------------------------------------------------------------------
// Fault stream and fault model
// --------------------------------------------------------------------------

TEST(FaultStreamTest, SeedIsDeterministicAndArgumentSensitive) {
  std::uint64_t base = FaultSeed(17, 3, 0, 2);
  EXPECT_EQ(base, FaultSeed(17, 3, 0, 2));
  EXPECT_NE(base, FaultSeed(18, 3, 0, 2));
  EXPECT_NE(base, FaultSeed(17, 4, 0, 2));
  EXPECT_NE(base, FaultSeed(17, 3, 1, 2));
  EXPECT_NE(base, FaultSeed(17, 3, 0, 3));
}

TEST(FaultStreamTest, InactiveProfileDrawsNothing) {
  // A profile with all probabilities at zero must not consume a single
  // draw, so the stream state is untouched.
  FaultProfile profile;
  util::Rng rng(99);
  util::Rng untouched(99);
  FaultDecision decision = DrawFaults(profile, /*round_deadline=*/5.0, rng);
  EXPECT_FALSE(decision.dropped);
  EXPECT_FALSE(decision.timed_out);
  EXPECT_FALSE(decision.corrupt);
  EXPECT_EQ(rng.Uniform(), untouched.Uniform());
}

TEST(FaultStreamTest, NeverFiringProfileIsBitIdenticalToDisabled) {
  // straggler_prob > 0 with no deadline consumes fault-stream draws but can
  // never change an outcome. Because those draws come from the dedicated
  // stream, the run must be bit-identical to one with faults disabled: the
  // training stream never observes them.
  AlgorithmConfig clean = ToyConfig();
  FedAvg a(clean, MakeToyFederated(8, 40, 4, 41), LinearFactory(4));
  for (int r = 0; r < 3; ++r) a.RunRound(r);

  AlgorithmConfig harmless = ToyConfig();
  harmless.faults.profile.straggler_prob = 0.5;
  harmless.faults.round_deadline = 0.0;  // deadline off: stragglers finish
  FedAvg b(harmless, MakeToyFederated(8, 40, 4, 41), LinearFactory(4));
  for (int r = 0; r < 3; ++r) b.RunRound(r);

  ExpectParamsBitEqual(a.GlobalParams(), b.GlobalParams());
  EXPECT_EQ(b.fault_stats().dropouts, 0);
  EXPECT_EQ(b.fault_stats().stragglers, 0);
}

TEST(FaultStreamTest, OneClientsDropoutDoesNotPerturbSurvivors) {
  auto make_jobs = [](ProbeAlgorithm& probe,
                      std::vector<ProbeAlgorithm::ClientJob>& jobs,
                      const ClientTrainSpec& spec) {
    jobs.resize(4);
    for (int i = 0; i < 4; ++i) {
      jobs[i] = {i, &probe.InitialParams(), &spec};
    }
  };

  ClientTrainSpec spec;
  spec.options = ToyConfig().train;

  ProbeAlgorithm clean(ToyConfig(), MakeToyFederated(8, 40, 4, 41),
                       LinearFactory(4));
  std::vector<ProbeAlgorithm::ClientJob> jobs;
  make_jobs(clean, jobs, spec);
  std::vector<FlatParams> baseline;
  for (const LocalTrainResult& r : clean.TrainClients(0, 0, jobs)) {
    baseline.push_back(r.params);
  }

  AlgorithmConfig faulty = ToyConfig();
  faulty.faults.overrides[1].dropout_prob = 1.0;  // only client 1 fails
  ProbeAlgorithm probe(faulty, MakeToyFederated(8, 40, 4, 41),
                       LinearFactory(4));
  make_jobs(probe, jobs, spec);
  std::span<const LocalTrainResult> results = probe.TrainClients(0, 0, jobs);

  // Only accepted uploads come back: slot 1 is absent, and every surviving
  // client trained exactly as in the clean run.
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(probe.fault_stats().dropouts, 1);
  const int survivors[] = {0, 2, 3};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(results[i].slot, survivors[i]);
    EXPECT_EQ(results[i].client_id, survivors[i]);
    EXPECT_FALSE(results[i].dropped);
    ExpectParamsBitEqual(results[i].params, baseline[survivors[i]]);
  }
}

TEST(FaultModelTest, StragglersMissTheDeadline) {
  AlgorithmConfig config = ToyConfig();
  config.faults.profile.straggler_prob = 1.0;
  config.faults.profile.slowdown_min = 10.0;
  config.faults.profile.slowdown_max = 10.0;
  config.faults.round_deadline = 5.0;
  FedAvg fedavg(config, MakeToyFederated(8, 40, 4, 41), LinearFactory(4));
  FlatParams before = fedavg.GlobalParams();
  fedavg.RunRound(0);
  // Every client timed out, so the round aggregated nothing.
  EXPECT_EQ(fedavg.fault_stats().stragglers, 4);
  ExpectParamsBitEqual(fedavg.GlobalParams(), before);
}

TEST(FaultModelTest, OverProvisionDispatchesExtraClients) {
  AlgorithmConfig config = ToyConfig();
  config.faults.over_provision = 2;
  FedAvg fedavg(config, MakeToyFederated(8, 40, 4, 41), LinearFactory(4));
  fedavg.RunRound(0);
  double per_model = CommTracker::FloatBytes(fedavg.model_size());
  // K + over_provision = 6 dispatches (and, fault-free, 6 uploads).
  EXPECT_EQ(fedavg.comm().total_download_bytes(), 6 * per_model);
  EXPECT_EQ(fedavg.comm().total_upload_bytes(), 6 * per_model);
}

// Exact sync-round accounting under every fault kind at once: dropouts,
// deadline stragglers, NaN uploads the screener rejects, a DP clip every
// trained upload exceeds, and secure-aggregation masking with recovery.
// Each tally follows from the fault stream and the survivor pattern, never
// from float values, so the constants hold on any ISA and thread count.
struct SyncTallies {
  FaultStats faults;
  std::uint64_t raw_down = 0;
  std::uint64_t raw_up = 0;
  std::uint64_t raw_wasted = 0;
  PrivacyStats privacy;
  std::int64_t model_version = 0;
};

SyncTallies RunPinnedSyncRounds(const std::string& name, int threads) {
  AlgorithmConfig config = ToyConfig();
  config.faults.profile.dropout_prob = 0.2;
  config.faults.profile.straggler_prob = 0.3;
  config.faults.round_deadline = 5.0;  // slowdowns in [2, 8]: some miss it
  config.faults.profile.corrupt_prob = 0.25;
  config.faults.profile.corruption = CorruptionKind::kNanInject;
  config.screening.check_finite = true;
  config.dp.clip_norm = 1e-6f;  // every trained update exceeds it
  config.secure_agg.enabled = true;
  SetFlThreads(threads);
  std::unique_ptr<FlAlgorithm> algo = MakeAlgorithm(name, config);
  algo->Run(/*rounds=*/4, /*eval_every=*/4);
  SetFlThreads(0);
  SyncTallies tallies;
  tallies.faults = algo->fault_stats();
  tallies.raw_down = algo->comm().total_download_bytes();
  tallies.raw_up = algo->comm().total_upload_bytes();
  tallies.raw_wasted = algo->comm().total_wasted_bytes();
  tallies.privacy = algo->privacy_stats();
  tallies.model_version = algo->model_version();
  return tallies;
}

void ExpectTallies(const SyncTallies& got, const SyncTallies& want) {
  EXPECT_EQ(got.faults.dropouts, want.faults.dropouts);
  EXPECT_EQ(got.faults.stragglers, want.faults.stragglers);
  EXPECT_EQ(got.faults.corrupted, want.faults.corrupted);
  EXPECT_EQ(got.faults.rejected, want.faults.rejected);
  EXPECT_EQ(got.faults.timeouts, want.faults.timeouts);
  EXPECT_EQ(got.faults.retries, want.faults.retries);
  EXPECT_EQ(got.raw_down, want.raw_down);
  EXPECT_EQ(got.raw_up, want.raw_up);
  EXPECT_EQ(got.raw_wasted, want.raw_wasted);
  EXPECT_EQ(got.privacy.clipped, want.privacy.clipped);
  EXPECT_EQ(got.privacy.mask_pairs, want.privacy.mask_pairs);
  EXPECT_EQ(got.privacy.mask_recoveries, want.privacy.mask_recoveries);
  EXPECT_EQ(got.model_version, want.model_version);
}

TEST(SyncAccountingTest, TalliesArePinned) {
  // Model: Linear(4, 2) = 10 floats = 40 raw bytes per transfer. 16
  // dispatches; 2 dropouts + 1 deadline straggler never upload; 4 NaN
  // uploads are rejected; the 13 uploads that reached the server were all
  // clipped, and each dangling mask costs 8 revealed-seed bytes upstream.
  SyncTallies want;
  want.faults.dropouts = 2;
  want.faults.stragglers = 1;
  want.faults.corrupted = 4;
  want.faults.rejected = 4;
  want.raw_down = 16 * 40;
  want.raw_up = 13 * 40 + 13 * 8;
  want.raw_wasted = 3 * 40 + 4 * 80;
  want.privacy.clipped = 13;
  want.privacy.mask_pairs = 20;
  want.privacy.mask_recoveries = 13;
  want.model_version = 4;
  for (const char* name : {"FedAvg", "FedCross"}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(name) + " @ " + std::to_string(threads));
      ExpectTallies(RunPinnedSyncRounds(name, threads), want);
    }
  }
}

TEST(FaultModelTest, ParseRoundTrips) {
  for (CorruptionKind kind :
       {CorruptionKind::kNanInject, CorruptionKind::kInfInject,
        CorruptionKind::kExplodingNorm, CorruptionKind::kSignFlip}) {
    util::StatusOr<CorruptionKind> parsed =
        ParseCorruptionKind(CorruptionKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_FALSE(ParseCorruptionKind("gamma-ray").ok());

  for (AggregatorKind kind :
       {AggregatorKind::kWeightedMean, AggregatorKind::kTrimmedMean,
        AggregatorKind::kCoordinateMedian, AggregatorKind::kNormClippedMean}) {
    util::StatusOr<AggregatorKind> parsed =
        ParseAggregatorKind(AggregatorKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), kind);
  }
  EXPECT_FALSE(ParseAggregatorKind("krum").ok());
}

// --------------------------------------------------------------------------
// Corruption and screening
// --------------------------------------------------------------------------

TEST(ScreeningTest, CorruptUploadMatchesItsDefinition) {
  FaultProfile profile;
  profile.corruption = CorruptionKind::kSignFlip;
  profile.corruption_scale = 2.0f;
  FlatParams reference = {1.0f, -1.0f, 0.5f};
  FlatParams params = {2.0f, 0.0f, 0.5f};
  util::Rng rng(7);
  CorruptUpload(profile, reference, params, rng);
  // ref - scale * (p - ref)
  EXPECT_FLOAT_EQ(params[0], 1.0f - 2.0f * 1.0f);
  EXPECT_FLOAT_EQ(params[1], -1.0f - 2.0f * 1.0f);
  EXPECT_FLOAT_EQ(params[2], 0.5f);

  profile.corruption = CorruptionKind::kExplodingNorm;
  params = {2.0f, 0.0f, 0.5f};
  CorruptUpload(profile, reference, params, rng);
  EXPECT_FLOAT_EQ(params[0], 1.0f + 2.0f * 1.0f);
  EXPECT_FLOAT_EQ(params[1], -1.0f + 2.0f * 1.0f);
  EXPECT_FLOAT_EQ(params[2], 0.5f);

  profile.corruption = CorruptionKind::kNanInject;
  profile.corrupt_coords = 2;
  params = {2.0f, 0.0f, 0.5f};
  CorruptUpload(profile, reference, params, rng);
  EXPECT_FALSE(AllFinite(params));
}

TEST(ScreeningTest, GateCatchesNonFiniteAndExplodingUploads) {
  ScreeningOptions options;
  options.check_finite = true;
  options.max_update_norm = 5.0f;
  FlatParams reference = {0.0f, 0.0f};

  EXPECT_TRUE(ScreenUpload(reference, {1.0f, 1.0f}, options).ok());

  util::Status nan_verdict = ScreenUpload(
      reference, {std::nanf(""), 1.0f}, options);
  EXPECT_EQ(nan_verdict.code(), util::StatusCode::kInvalidArgument);

  util::Status big_verdict = ScreenUpload(reference, {30.0f, 40.0f}, options);
  EXPECT_EQ(big_verdict.code(), util::StatusCode::kOutOfRange);

  util::Status size_verdict = ScreenUpload(reference, {1.0f}, options);
  EXPECT_EQ(size_verdict.code(), util::StatusCode::kInvalidArgument);

  // The norm gate alone must also stop NaN uploads (NaN fails any
  // comparison, so the gate uses !(norm <= gate)).
  ScreeningOptions norm_only;
  norm_only.max_update_norm = 5.0f;
  EXPECT_FALSE(ScreenUpload(reference, {std::nanf(""), 1.0f}, norm_only).ok());
}

TEST(ScreeningTest, WithoutScreeningNanUploadsPoisonTheGlobalModel) {
  AlgorithmConfig config = ToyConfig();
  config.faults.profile.corrupt_prob = 1.0;
  config.faults.profile.corruption = CorruptionKind::kNanInject;
  FedAvg fedavg(config, MakeToyFederated(8, 40, 4, 41), LinearFactory(4));
  fedavg.RunRound(0);
  EXPECT_FALSE(AllFinite(fedavg.GlobalParams()));
}

TEST(ScreeningTest, EveryAlgorithmRejectsNanUploads) {
  for (const char* name : kAllAlgorithms) {
    AlgorithmConfig config = ToyConfig();
    config.faults.profile.corrupt_prob = 1.0;
    config.faults.profile.corruption = CorruptionKind::kNanInject;
    config.screening.check_finite = true;
    std::unique_ptr<FlAlgorithm> algo = MakeAlgorithm(name, config);
    for (int r = 0; r < 2; ++r) algo->RunRound(r);
    EXPECT_GT(algo->fault_stats().rejected, 0) << name;
    EXPECT_EQ(algo->fault_stats().corrupted, algo->fault_stats().rejected)
        << name;
    EXPECT_TRUE(AllFinite(algo->GlobalParams())) << name;
  }
}

TEST(ScreeningTest, EveryAlgorithmRejectsExplodingUploads) {
  for (const char* name : kAllAlgorithms) {
    AlgorithmConfig config = ToyConfig();
    config.faults.profile.corrupt_prob = 1.0;
    config.faults.profile.corruption = CorruptionKind::kExplodingNorm;
    config.faults.profile.corruption_scale = 1e6f;
    config.screening.max_update_norm = 10.0f;
    std::unique_ptr<FlAlgorithm> algo = MakeAlgorithm(name, config);
    for (int r = 0; r < 2; ++r) algo->RunRound(r);
    EXPECT_GT(algo->fault_stats().rejected, 0) << name;
    EXPECT_TRUE(AllFinite(algo->GlobalParams())) << name;
  }
}

// --------------------------------------------------------------------------
// Robust aggregators
// --------------------------------------------------------------------------

TEST(AggregatorTest, TrimmedMeanDropsTheTails) {
  FlatParams a = {1.0f, -100.0f};
  FlatParams b = {2.0f, 1.0f};
  FlatParams c = {3.0f, 2.0f};
  FlatParams d = {100.0f, 3.0f};
  std::vector<const FlatParams*> models = {&a, &b, &c, &d};
  FlatParams column;
  FlatParams out;
  TrimmedMeanInto(models, /*trim_ratio=*/0.25, column, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_FLOAT_EQ(out[0], 2.5f);  // mean of {2, 3}
  EXPECT_FLOAT_EQ(out[1], 1.5f);  // mean of {1, 2}
}

TEST(AggregatorTest, TrimmedMeanKeepsAtLeastOneValue) {
  // n = 2 with trim_ratio 0.4 would trim 0 from each side (floor(0.8) = 0);
  // n = 3 with 0.45 trims one, leaving the median.
  FlatParams a = {0.0f};
  FlatParams b = {10.0f};
  FlatParams c = {1.0f};
  std::vector<const FlatParams*> models = {&a, &b, &c};
  FlatParams column;
  FlatParams out;
  TrimmedMeanInto(models, /*trim_ratio=*/0.45, column, out);
  EXPECT_FLOAT_EQ(out[0], 1.0f);
}

TEST(AggregatorTest, CoordinateMedianOddAndEven) {
  FlatParams a = {1.0f, 4.0f};
  FlatParams b = {5.0f, 1.0f};
  FlatParams c = {100.0f, 2.0f};
  std::vector<const FlatParams*> odd = {&a, &b, &c};
  FlatParams column;
  FlatParams out;
  CoordinateMedianInto(odd, column, out);
  EXPECT_FLOAT_EQ(out[0], 5.0f);
  EXPECT_FLOAT_EQ(out[1], 2.0f);

  FlatParams d = {2.0f, 3.0f};
  std::vector<const FlatParams*> even = {&a, &b, &c, &d};
  CoordinateMedianInto(even, column, out);
  EXPECT_FLOAT_EQ(out[0], 3.5f);  // mean of {2, 5}
  EXPECT_FLOAT_EQ(out[1], 2.5f);  // mean of {2, 3}
}

TEST(AggregatorTest, NormClippedMeanClipsLargeUpdates) {
  FlatParams reference = {0.0f, 0.0f};
  FlatParams small = {3.0f, 4.0f};   // norm 5: untouched
  FlatParams large = {6.0f, 8.0f};   // norm 10: clipped to {3, 4}
  std::vector<const FlatParams*> models = {&small, &large};
  std::vector<double> weights = {1.0, 1.0};
  FlatParams scratch;
  FlatParams out;
  NormClippedWeightedAverageInto(models, weights, reference, /*clip_norm=*/5.0f,
                                 scratch, out);
  EXPECT_FLOAT_EQ(out[0], 3.0f);
  EXPECT_FLOAT_EQ(out[1], 4.0f);
}

TEST(AggregatorTest, NormClippedMeanIsAliasSafe) {
  FlatParams reference = {1.0f, 2.0f};
  FlatParams m = {2.0f, 2.0f};
  std::vector<const FlatParams*> models = {&m};
  std::vector<double> weights = {1.0};
  FlatParams scratch;
  // out aliases reference: the clipping centre must be read before the
  // output is written.
  NormClippedWeightedAverageInto(models, weights, reference, /*clip_norm=*/5.0f,
                                 scratch, reference);
  EXPECT_FLOAT_EQ(reference[0], 2.0f);
  EXPECT_FLOAT_EQ(reference[1], 2.0f);
}

TEST(AggregatorTest, ByzantineClientCannotMoveTheMedian) {
  // One sign-flipping client among four under the coordinate median: the
  // model stays finite and close to the honest aggregate.
  AlgorithmConfig config = ToyConfig();
  config.faults.overrides[0].corrupt_prob = 1.0;
  config.faults.overrides[0].corruption = CorruptionKind::kSignFlip;
  config.faults.overrides[0].corruption_scale = 1e4f;
  config.aggregator.kind = AggregatorKind::kCoordinateMedian;
  FedAvg fedavg(config, MakeToyFederated(8, 40, 4, 41), LinearFactory(4));
  for (int r = 0; r < 3; ++r) fedavg.RunRound(r);
  FlatParams params = fedavg.GlobalParams();
  ASSERT_TRUE(AllFinite(params));
  for (float x : params) EXPECT_LT(std::fabs(x), 100.0f);
}

// --------------------------------------------------------------------------
// Checkpoint serialisation primitives
// --------------------------------------------------------------------------

TEST(StateSerializationTest, PrimitivesRoundTrip) {
  StateWriter writer;
  writer.WriteU32(0xdeadbeefu);
  writer.WriteU64(0x0123456789abcdefULL);
  writer.WriteI64(-42);
  writer.WriteF32(1.5f);
  writer.WriteF64(-2.25);
  writer.WriteBool(true);
  writer.WriteFloats({1.0f, -2.0f, 3.0f});
  writer.WriteInts({-1, 0, 7});
  writer.WriteDoubles({0.5, -0.25});

  StateReader reader(writer.bytes());
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  std::int64_t i64 = 0;
  float f32 = 0.0f;
  double f64 = 0.0;
  bool flag = false;
  FlatParams floats;
  std::vector<int> ints;
  std::vector<double> doubles;
  ASSERT_TRUE(reader.ReadU32(u32).ok());
  ASSERT_TRUE(reader.ReadU64(u64).ok());
  ASSERT_TRUE(reader.ReadI64(i64).ok());
  ASSERT_TRUE(reader.ReadF32(f32).ok());
  ASSERT_TRUE(reader.ReadF64(f64).ok());
  ASSERT_TRUE(reader.ReadBool(flag).ok());
  ASSERT_TRUE(reader.ReadFloats(floats).ok());
  ASSERT_TRUE(reader.ReadInts(ints).ok());
  ASSERT_TRUE(reader.ReadDoubles(doubles).ok());
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(f32, 1.5f);
  EXPECT_EQ(f64, -2.25);
  EXPECT_TRUE(flag);
  EXPECT_EQ(floats, FlatParams({1.0f, -2.0f, 3.0f}));
  EXPECT_EQ(ints, std::vector<int>({-1, 0, 7}));
  EXPECT_EQ(doubles, std::vector<double>({0.5, -0.25}));
  EXPECT_TRUE(reader.AtEnd());
  // Reading past the end is a clean error, not UB.
  EXPECT_EQ(reader.ReadU32(u32).code(), util::StatusCode::kInvalidArgument);
}

TEST(StateSerializationTest, EmptyFloatVectorRoundTrips) {
  StateWriter writer;
  writer.WriteFloats({});
  writer.WriteU32(7);
  StateReader reader(writer.bytes());
  FlatParams floats = {1.0f, 2.0f};  // a stale non-empty destination
  std::uint32_t tail = 0;
  ASSERT_TRUE(reader.ReadFloats(floats).ok());
  ASSERT_TRUE(reader.ReadU32(tail).ok());
  EXPECT_TRUE(floats.empty());
  EXPECT_EQ(tail, 7u);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(StateSerializationTest, CorruptLengthPrefixIsRejected) {
  StateWriter writer;
  writer.WriteU64(~0ULL);  // a float vector claiming 2^64-1 elements
  StateReader reader(writer.bytes());
  FlatParams floats;
  EXPECT_EQ(reader.ReadFloats(floats).code(),
            util::StatusCode::kInvalidArgument);
}

TEST(StateSerializationTest, StateFileRoundTripAndValidation) {
  const std::string path = "robustness_state_file_test.bin";
  StateWriter writer;
  writer.WriteU64(1234);
  ASSERT_TRUE(WriteStateFile(path, writer).ok());

  util::StatusOr<StateReader> reader = ReadStateFile(path);
  ASSERT_TRUE(reader.ok());
  std::uint64_t value = 0;
  ASSERT_TRUE(reader.value().ReadU64(value).ok());
  EXPECT_EQ(value, 1234u);

  EXPECT_EQ(ReadStateFile("no_such_checkpoint.bin").status().code(),
            util::StatusCode::kNotFound);

  {
    std::ofstream garbage(path, std::ios::binary | std::ios::trunc);
    garbage << "not a checkpoint";
  }
  EXPECT_EQ(ReadStateFile(path).status().code(),
            util::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// --------------------------------------------------------------------------
// Full checkpoint / resume
// --------------------------------------------------------------------------

void ExpectSameHistory(const MetricsHistory& a, const MetricsHistory& b) {
  ASSERT_EQ(a.records().size(), b.records().size());
  for (std::size_t i = 0; i < a.records().size(); ++i) {
    const RoundRecord& x = a.records()[i];
    const RoundRecord& y = b.records()[i];
    EXPECT_EQ(x.round, y.round);
    EXPECT_EQ(x.test_loss, y.test_loss);
    EXPECT_EQ(x.test_accuracy, y.test_accuracy);
    EXPECT_EQ(x.bytes_up, y.bytes_up);
    EXPECT_EQ(x.bytes_down, y.bytes_down);
    EXPECT_EQ(x.mean_client_loss, y.mean_client_loss);
  }
}

TEST(CheckpointTest, ResumeIsBitIdenticalForEveryAlgorithm) {
  for (const char* name : kAllAlgorithms) {
    SCOPED_TRACE(name);
    const std::string path =
        std::string("robustness_ckpt_") + name + ".bin";
    AlgorithmConfig config = ToyConfig();

    // Uninterrupted reference run.
    std::unique_ptr<FlAlgorithm> full = MakeAlgorithm(name, config);
    full->Run(5, /*eval_every=*/1);

    // Run 3 rounds, checkpoint, "kill" the process (drop the instance).
    {
      std::unique_ptr<FlAlgorithm> first = MakeAlgorithm(name, config);
      first->Run(3, /*eval_every=*/1);
      ASSERT_TRUE(first->SaveCheckpoint(path).ok());
    }

    // Restore into a fresh instance and finish the run.
    std::unique_ptr<FlAlgorithm> resumed = MakeAlgorithm(name, config);
    ASSERT_TRUE(resumed->LoadCheckpoint(path).ok());
    EXPECT_EQ(resumed->completed_rounds(), 3);
    resumed->Run(5, /*eval_every=*/1);

    EXPECT_EQ(resumed->completed_rounds(), 5);
    ExpectParamsBitEqual(full->GlobalParams(), resumed->GlobalParams());
    ExpectSameHistory(full->history(), resumed->history());
    EXPECT_EQ(full->comm().total_upload_bytes(),
              resumed->comm().total_upload_bytes());
    EXPECT_EQ(full->comm().total_download_bytes(),
              resumed->comm().total_download_bytes());
    std::remove(path.c_str());
  }
}

TEST(CheckpointTest, ResumeUnderFaultsIsBitIdentical) {
  // Checkpointing must also capture the fault accounting mid-run.
  const std::string path = "robustness_ckpt_faulty.bin";
  AlgorithmConfig config = ToyConfig();
  config.faults.profile.dropout_prob = 0.2;
  config.faults.profile.corrupt_prob = 0.3;
  config.faults.profile.corruption = CorruptionKind::kExplodingNorm;
  config.screening.max_update_norm = 25.0f;
  config.aggregator.kind = AggregatorKind::kNormClippedMean;
  config.aggregator.clip_norm = 5.0f;

  std::unique_ptr<FlAlgorithm> full = MakeAlgorithm("FedAvg", config);
  full->Run(6, /*eval_every=*/1);

  {
    std::unique_ptr<FlAlgorithm> first = MakeAlgorithm("FedAvg", config);
    first->Run(2, /*eval_every=*/1);
    ASSERT_TRUE(first->SaveCheckpoint(path).ok());
  }
  std::unique_ptr<FlAlgorithm> resumed = MakeAlgorithm("FedAvg", config);
  ASSERT_TRUE(resumed->LoadCheckpoint(path).ok());
  resumed->Run(6, /*eval_every=*/1);

  ExpectParamsBitEqual(full->GlobalParams(), resumed->GlobalParams());
  ExpectSameHistory(full->history(), resumed->history());
  EXPECT_EQ(full->fault_stats().dropouts, resumed->fault_stats().dropouts);
  EXPECT_EQ(full->fault_stats().corrupted, resumed->fault_stats().corrupted);
  EXPECT_EQ(full->fault_stats().rejected, resumed->fault_stats().rejected);
  std::remove(path.c_str());
}

TEST(CheckpointTest, AutoCheckpointSavesDuringRun) {
  const std::string path = "robustness_ckpt_auto.bin";
  {
    std::unique_ptr<FlAlgorithm> algo = MakeAlgorithm("FedAvg", ToyConfig());
    algo->EnableAutoCheckpoint(path, /*every_rounds=*/2);
    algo->Run(5, /*eval_every=*/1);
  }
  std::unique_ptr<FlAlgorithm> restored = MakeAlgorithm("FedAvg", ToyConfig());
  ASSERT_TRUE(restored->LoadCheckpoint(path).ok());
  // The final round always checkpoints, even off the every_rounds grid.
  EXPECT_EQ(restored->completed_rounds(), 5);
  // Resuming a finished run is a no-op.
  std::size_t records = restored->history().records().size();
  restored->Run(5, /*eval_every=*/1);
  EXPECT_EQ(restored->history().records().size(), records);
  std::remove(path.c_str());
}

TEST(CheckpointTest, MismatchedConfigurationIsRejected) {
  const std::string path = "robustness_ckpt_mismatch.bin";
  {
    std::unique_ptr<FlAlgorithm> algo = MakeAlgorithm("FedAvg", ToyConfig());
    algo->Run(2, /*eval_every=*/1);
    ASSERT_TRUE(algo->SaveCheckpoint(path).ok());
  }
  // Different seed.
  AlgorithmConfig other_seed = ToyConfig();
  other_seed.seed = 18;
  std::unique_ptr<FlAlgorithm> wrong_seed = MakeAlgorithm("FedAvg", other_seed);
  EXPECT_EQ(wrong_seed->LoadCheckpoint(path).code(),
            util::StatusCode::kFailedPrecondition);
  // Different algorithm.
  std::unique_ptr<FlAlgorithm> wrong_algo =
      MakeAlgorithm("SCAFFOLD", ToyConfig());
  EXPECT_EQ(wrong_algo->LoadCheckpoint(path).code(),
            util::StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(CheckpointTest, TruncatedCheckpointIsRejected) {
  const std::string path = "robustness_ckpt_truncated.bin";
  {
    std::unique_ptr<FlAlgorithm> algo = MakeAlgorithm("FedAvg", ToyConfig());
    algo->Run(2, /*eval_every=*/1);
    ASSERT_TRUE(algo->SaveCheckpoint(path).ok());
  }
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  ASSERT_TRUE(in.good());
  std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<char> bytes(static_cast<std::size_t>(size) / 2);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  std::unique_ptr<FlAlgorithm> algo = MakeAlgorithm("FedAvg", ToyConfig());
  EXPECT_EQ(algo->LoadCheckpoint(path).code(),
            util::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileIsNotFound) {
  std::unique_ptr<FlAlgorithm> algo = MakeAlgorithm("FedAvg", ToyConfig());
  EXPECT_EQ(algo->LoadCheckpoint("definitely_missing.bin").code(),
            util::StatusCode::kNotFound);
}

TEST(CheckpointTest, ResumeUnderLossyCodecIsBitIdentical) {
  // The v2 checkpoint carries the per-client error-feedback residuals: a
  // resumed int8_topk run must re-quantise against the same residual state
  // the killed run held, or it diverges from the uninterrupted one.
  const std::string path = "robustness_ckpt_codec.bin";
  AlgorithmConfig config = ToyConfig();
  config.codec.scheme = comm::Scheme::kInt8TopK;
  config.codec.topk_fraction = 0.25;

  std::unique_ptr<FlAlgorithm> full = MakeAlgorithm("FedCross", config);
  full->Run(6, /*eval_every=*/1);

  {
    std::unique_ptr<FlAlgorithm> first = MakeAlgorithm("FedCross", config);
    first->Run(3, /*eval_every=*/1);
    ASSERT_TRUE(first->SaveCheckpoint(path).ok());
  }
  std::unique_ptr<FlAlgorithm> resumed = MakeAlgorithm("FedCross", config);
  ASSERT_TRUE(resumed->LoadCheckpoint(path).ok());
  resumed->Run(6, /*eval_every=*/1);

  ExpectParamsBitEqual(full->GlobalParams(), resumed->GlobalParams());
  ExpectSameHistory(full->history(), resumed->history());
  EXPECT_EQ(full->comm().total_wire_upload_bytes(),
            resumed->comm().total_wire_upload_bytes());
  std::remove(path.c_str());
}

TEST(CheckpointTest, CodecConfigPerturbsTheFingerprint) {
  // A checkpoint from a lossy-codec run must not resume into an uncoded
  // configuration (or vice versa): the residual state only makes sense
  // under the codec that produced it.
  const std::string path = "robustness_ckpt_codec_fp.bin";
  AlgorithmConfig coded = ToyConfig();
  coded.codec.scheme = comm::Scheme::kInt8;
  {
    std::unique_ptr<FlAlgorithm> algo = MakeAlgorithm("FedAvg", coded);
    algo->Run(1, /*eval_every=*/1);
    ASSERT_TRUE(algo->SaveCheckpoint(path).ok());
  }
  std::unique_ptr<FlAlgorithm> uncoded =
      MakeAlgorithm("FedAvg", ToyConfig());
  EXPECT_EQ(uncoded->LoadCheckpoint(path).code(),
            util::StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(CheckpointTest, Version1CheckpointStillLoads) {
  // Builds a real v1 file out of a v2 one by inverting the format bump:
  // the four u64 comm counters become the two f64 totals v1 stored, the
  // residual-table count disappears, and the header version drops to 1.
  // Everything the old format did carry must keep resuming exactly.
  const std::string path = "robustness_ckpt_v1.bin";
  AlgorithmConfig config = ToyConfig();

  std::unique_ptr<FlAlgorithm> full = MakeAlgorithm("FedAvg", config);
  full->Run(4, /*eval_every=*/1);

  {
    std::unique_ptr<FlAlgorithm> first = MakeAlgorithm("FedAvg", config);
    first->Run(2, /*eval_every=*/1);
    // Start from the v2 downgrade: the byte surgery below inverts the
    // v1 -> v2 bump, and later versions append further blocks (sparse
    // tables, wasted totals, the v4 engine state) it does not model.
    ASSERT_TRUE(first->SaveCheckpoint(path, /*version=*/2).ok());
  }

  std::vector<std::uint8_t> bytes;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    ASSERT_TRUE(in.good());
    bytes.resize(static_cast<std::size_t>(in.tellg()));
    in.seekg(0);
    in.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  }
  // Body layout up to the comm block: fingerprint u64, completed i64, four
  // RNG words, the cached-normal bool + f64. File header is 8 bytes.
  const std::size_t comm_at = 8 + 8 + 8 + 4 * 8 + 1 + 8;
  std::uint64_t total_down = 0;
  std::uint64_t total_up = 0;
  std::memcpy(&total_down, bytes.data() + comm_at, 8);
  std::memcpy(&total_up, bytes.data() + comm_at + 8, 8);
  double as_f64[2] = {static_cast<double>(total_down),
                      static_cast<double>(total_up)};
  // 4 x u64 -> 2 x f64: the comm block shrinks by 16 bytes.
  std::memcpy(bytes.data() + comm_at, as_f64, 16);
  bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(comm_at + 16),
              bytes.begin() + static_cast<std::ptrdiff_t>(comm_at + 32));
  // Drop the residual-table count (empty for an identity run): it sits
  // after the fault stats and the history records.
  std::uint64_t record_count = 0;
  const std::size_t records_at = comm_at + 16 + 4 * 8;
  std::memcpy(&record_count, bytes.data() + records_at, 8);
  ASSERT_EQ(record_count, 2u);
  const std::size_t residuals_at = records_at + 8 + record_count * 40;
  std::uint64_t residual_count = 0;
  std::memcpy(&residual_count, bytes.data() + residuals_at, 8);
  ASSERT_EQ(residual_count, 0u);
  bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(residuals_at),
              bytes.begin() + static_cast<std::ptrdiff_t>(residuals_at + 8));
  const std::uint32_t v1 = 1;
  std::memcpy(bytes.data() + 4, &v1, 4);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  std::unique_ptr<FlAlgorithm> resumed = MakeAlgorithm("FedAvg", config);
  ASSERT_TRUE(resumed->LoadCheckpoint(path).ok());
  EXPECT_EQ(resumed->completed_rounds(), 2);
  // v1 predates wire accounting: wire totals fall back to the raw totals.
  EXPECT_EQ(resumed->comm().total_upload_bytes(), total_up);
  EXPECT_EQ(resumed->comm().total_wire_upload_bytes(), total_up);
  resumed->Run(4, /*eval_every=*/1);
  ExpectParamsBitEqual(full->GlobalParams(), resumed->GlobalParams());
  ExpectSameHistory(full->history(), resumed->history());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fedcross::fl
