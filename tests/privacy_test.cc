// Tests for the privacy subsystem (src/privacy): the subsampled-Gaussian
// RDP accountant against hand-computed closed forms, DP-SGD sanitisation
// edge cases (zero-norm updates, clip without noise, non-finite uploads
// meeting server screening), secure-aggregation masking — exact pairwise
// cancellation, dropout recovery, and the masking-on == masking-off
// bit-identity across all six algorithms — and the FCRS checkpoint
// round trip of the accountant ledger.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>

#include "comm/wire.h"
#include "core/fedcross.h"
#include "fl/clusamp.h"
#include "fl/faults.h"
#include "fl/fedavg.h"
#include "fl/fedgen.h"
#include "fl/scaffold.h"
#include "nn/linear.h"
#include "privacy/accountant.h"
#include "privacy/dp.h"
#include "privacy/masking.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fedcross {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

models::ModelFactory LinearFactory(int dim, std::uint64_t seed = 1) {
  return [dim, seed]() {
    util::Rng rng(seed);
    nn::Sequential model;
    model.Add(std::make_unique<nn::Linear>(dim, 2, rng));
    return model;
  };
}

data::FederatedDataset MakeToyFederated(int num_clients, int per_client,
                                        std::uint64_t seed) {
  util::Rng rng(seed);
  data::FederatedDataset federated;
  federated.num_classes = 2;
  auto gen = [&](int count, std::vector<float>& features,
                 std::vector<int>& labels) {
    for (int i = 0; i < count; ++i) {
      int k = static_cast<int>(rng.UniformInt(2));
      float mean = k == 0 ? -1.0f : 1.0f;
      for (int d = 0; d < 4; ++d) {
        features.push_back(mean + static_cast<float>(rng.Normal(0.0, 0.5)));
      }
      labels.push_back(k);
    }
  };
  for (int c = 0; c < num_clients; ++c) {
    std::vector<float> features;
    std::vector<int> labels;
    gen(per_client, features, labels);
    federated.client_train.push_back(std::make_shared<data::InMemoryDataset>(
        Tensor::Shape{4}, std::move(features), std::move(labels), 2));
  }
  {
    std::vector<float> features;
    std::vector<int> labels;
    gen(40, features, labels);
    federated.test = std::make_shared<data::InMemoryDataset>(
        Tensor::Shape{4}, std::move(features), std::move(labels), 2);
  }
  return federated;
}

fl::AlgorithmConfig ToyConfig() {
  fl::AlgorithmConfig config;
  config.clients_per_round = 4;
  config.train.local_epochs = 2;
  config.train.batch_size = 10;
  config.train.lr = 0.05f;
  config.seed = 17;
  return config;
}

// ---------------------------------------------------------------------------
// RDP accountant
// ---------------------------------------------------------------------------

TEST(RdpAccountantTest, NoSamplingMeansNoPrivacyLoss) {
  EXPECT_EQ(privacy::RdpAccountant::SubsampledGaussianRdp(0.0, 1.0, 2), 0.0);
  EXPECT_EQ(privacy::RdpAccountant::SubsampledGaussianRdp(0.0, 0.5, 64), 0.0);
}

TEST(RdpAccountantTest, NoNoiseMeansInfiniteLoss) {
  EXPECT_EQ(privacy::RdpAccountant::SubsampledGaussianRdp(0.5, 0.0, 2), kInf);
  EXPECT_EQ(privacy::RdpAccountant::SubsampledGaussianRdp(0.5, -1.0, 8), kInf);
}

TEST(RdpAccountantTest, FullParticipationIsPlainGaussianMechanism) {
  // q = 1: rdp(alpha) = alpha / (2 sigma^2), the classic Gaussian bound.
  for (double sigma : {0.5, 1.0, 2.0, 4.0}) {
    for (int alpha : {2, 3, 16, 64, 1024}) {
      EXPECT_DOUBLE_EQ(
          privacy::RdpAccountant::SubsampledGaussianRdp(1.0, sigma, alpha),
          alpha / (2.0 * sigma * sigma))
          << "sigma=" << sigma << " alpha=" << alpha;
    }
  }
}

TEST(RdpAccountantTest, OrderTwoMatchesPublishedClosedForm) {
  // The alpha = 2 moment has the closed form rdp = log(1 + q^2 (e^{1/s^2} -
  // 1)) (Mironov, Talwar & Zhang 2019) — an independent hand computation of
  // the same quantity the log-sum-exp evaluates.
  for (double q : {0.001, 0.01, 0.1, 0.5, 0.9}) {
    for (double sigma : {0.5, 1.0, 2.0, 4.0}) {
      double expected =
          std::log1p(q * q * std::expm1(1.0 / (sigma * sigma)));
      EXPECT_NEAR(
          privacy::RdpAccountant::SubsampledGaussianRdp(q, sigma, 2),
          expected, 1e-12 + 1e-9 * expected)
          << "q=" << q << " sigma=" << sigma;
    }
  }
}

TEST(RdpAccountantTest, SmallSamplingRateQuadraticAmplification) {
  // For q << 1 and moderate alpha the leading term is q^2 alpha / sigma^2
  // (privacy amplification by subsampling); the exact bound must sit within
  // a few percent of it at q = 1e-3.
  const double q = 1e-3;
  const double sigma = 1.0;
  for (int alpha : {2, 4, 8}) {
    double exact = privacy::RdpAccountant::SubsampledGaussianRdp(q, sigma,
                                                                 alpha);
    double leading = q * q * alpha / (sigma * sigma);
    EXPECT_GT(exact, 0.2 * leading);
    EXPECT_LT(exact, 5.0 * leading);
  }
}

TEST(RdpAccountantTest, EpsilonHandComputedSingleGaussianRound) {
  // One q = 1, sigma = 1 round at delta = 1e-5: eps = min over alpha of
  // alpha/2 + log(1e5)/(alpha - 1). The continuous minimiser is alpha = 1 +
  // sqrt(2 log 1e5) ~ 5.80, so the integer grid's minimum lands at alpha =
  // 6: eps = 3 + log(1e5)/5.
  privacy::RdpAccountant accountant;
  accountant.AccumulateRound(1.0, 1.0);
  const double expected = 3.0 + std::log(1e5) / 5.0;
  EXPECT_NEAR(accountant.Epsilon(1e-5), expected, 1e-12);
  // Sanity-check the grid minimum really is alpha = 6.
  EXPECT_LT(expected, 2.5 + std::log(1e5) / 4.0);  // alpha = 5
  EXPECT_LT(expected, 3.5 + std::log(1e5) / 6.0);  // alpha = 7
}

TEST(RdpAccountantTest, EpsilonComposesMonotonically) {
  privacy::RdpAccountant accountant;
  EXPECT_EQ(accountant.Epsilon(1e-5), 0.0);  // empty ledger
  double previous = 0.0;
  for (int round = 0; round < 32; ++round) {
    accountant.AccumulateRound(0.1, 1.2);
    double eps = accountant.Epsilon(1e-5);
    EXPECT_GT(eps, previous);
    EXPECT_TRUE(std::isfinite(eps));
    previous = eps;
  }
  EXPECT_EQ(accountant.rounds(), 32);
}

TEST(RdpAccountantTest, MoreNoiseMeansSmallerEpsilon) {
  auto epsilon_after = [](double sigma, int rounds) {
    privacy::RdpAccountant accountant;
    for (int r = 0; r < rounds; ++r) accountant.AccumulateRound(0.2, sigma);
    return accountant.Epsilon(1e-5);
  };
  EXPECT_GT(epsilon_after(0.8, 10), epsilon_after(1.6, 10));
  EXPECT_GT(epsilon_after(1.6, 10), epsilon_after(3.2, 10));
}

TEST(RdpAccountantTest, UnnoisedRoundPoisonsTheLedger) {
  privacy::RdpAccountant accountant;
  accountant.AccumulateRound(0.5, 1.0);
  accountant.AccumulateRound(0.5, 0.0);  // a release without noise
  EXPECT_EQ(accountant.Epsilon(1e-5), kInf);
}

TEST(RdpAccountantTest, RestoreReproducesEpsilonBitExactly) {
  privacy::RdpAccountant accountant;
  for (int r = 0; r < 7; ++r) accountant.AccumulateRound(0.15, 1.1);
  privacy::RdpAccountant restored;
  restored.Restore(accountant.order_totals(), accountant.rounds());
  EXPECT_EQ(restored.Epsilon(1e-5), accountant.Epsilon(1e-5));
  EXPECT_EQ(restored.rounds(), accountant.rounds());
  restored.Reset();
  EXPECT_EQ(restored.Epsilon(1e-5), 0.0);
  EXPECT_EQ(restored.rounds(), 0);
}

// ---------------------------------------------------------------------------
// DP-SGD sanitisation edge cases
// ---------------------------------------------------------------------------

TEST(SanitizeUpdateTest, ZeroNormUpdateIsNeverClipped) {
  fl::FlatParams reference = {0.5f, -1.0f, 2.0f};
  fl::FlatParams params = reference;  // the client learned nothing
  privacy::DpOptions options;
  options.clip_norm = 1.0f;
  util::Rng rng(3);
  EXPECT_FALSE(privacy::SanitizeUpdateInPlace(reference, params, options,
                                              rng));
  EXPECT_EQ(params, reference);  // clip-only: bitwise no-op
}

TEST(SanitizeUpdateTest, ZeroNormUpdateStillGetsNoise) {
  fl::FlatParams reference(64, 0.25f);
  fl::FlatParams params = reference;
  privacy::DpOptions options;
  options.clip_norm = 1.0f;
  options.noise_multiplier = 1.0f;
  util::Rng rng(11);
  EXPECT_FALSE(privacy::SanitizeUpdateInPlace(reference, params, options,
                                              rng));
  // The mechanism must add noise even to a silent client, or silence itself
  // would leak; the result differs from the reference.
  EXPECT_NE(params, reference);
}

TEST(SanitizeUpdateTest, ClipWithoutNoiseLandsExactlyOnTheBound) {
  fl::FlatParams reference(32, 0.0f);
  fl::FlatParams params(32, 1.0f);  // norm = sqrt(32) ~ 5.66
  privacy::DpOptions options;
  options.clip_norm = 1.5f;
  util::Rng rng(5);
  EXPECT_TRUE(privacy::SanitizeUpdateInPlace(reference, params, options,
                                             rng));
  EXPECT_NEAR(privacy::UpdateNorm(reference, params), 1.5, 1e-4);
  // All coordinates moved the same way: pure rescaling, no noise.
  for (float v : params) EXPECT_FLOAT_EQ(v, params[0]);
}

TEST(SanitizeUpdateTest, UpdateInsideTheBoundPassesUntouched) {
  fl::FlatParams reference(8, 0.0f);
  fl::FlatParams params(8, 0.1f);  // norm ~ 0.283
  privacy::DpOptions options;
  options.clip_norm = 1.0f;
  util::Rng rng(7);
  EXPECT_FALSE(privacy::SanitizeUpdateInPlace(reference, params, options,
                                              rng));
  for (float v : params) EXPECT_FLOAT_EQ(v, 0.1f);
}

TEST(SanitizeUpdateTest, NonFiniteUploadSurvivesToScreening) {
  // A NaN-poisoned upload has a NaN norm; every comparison with the clip
  // bound is false, so the mechanism must not "launder" the corruption into
  // a finite value — server-side screening is the component that catches
  // it, and it must still fire after sanitisation.
  fl::FlatParams reference(8, 0.0f);
  fl::FlatParams params(8, 0.5f);
  params[3] = std::numeric_limits<float>::quiet_NaN();
  privacy::DpOptions options;
  options.clip_norm = 1.0f;
  util::Rng rng(13);
  EXPECT_FALSE(privacy::SanitizeUpdateInPlace(reference, params, options,
                                              rng));
  EXPECT_TRUE(std::isnan(params[3]));

  fl::ScreeningOptions screening;
  screening.check_finite = true;
  EXPECT_FALSE(fl::ScreenUpload(reference, params, screening).ok());
}

TEST(SanitizeUpdateTest, DisabledMechanismIsIdentity) {
  fl::FlatParams reference(4, 1.0f);
  fl::FlatParams params(4, 9.0f);
  privacy::DpOptions options;  // clip_norm = 0: disabled
  util::Rng rng(1);
  std::uint64_t before = rng.NextUint64();
  util::Rng fresh(1);
  EXPECT_FALSE(privacy::SanitizeUpdateInPlace(reference, params, options,
                                              fresh));
  for (float v : params) EXPECT_FLOAT_EQ(v, 9.0f);
  // And it consumed nothing from the stream.
  EXPECT_EQ(fresh.NextUint64(), before);
}

TEST(SanitizeUpdateTest, PrivacySeedIsItsOwnStream) {
  // The privacy stream must collide with neither the training nor the
  // fault derivation for the same (seed, round, salt, slot).
  std::uint64_t privacy_seed = privacy::PrivacySeed(17, 3, 1, 2);
  EXPECT_NE(privacy_seed, fl::FaultSeed(17, 3, 1, 2));
  EXPECT_NE(privacy_seed, privacy::PrivacySeed(17, 3, 1, 3));
  EXPECT_NE(privacy_seed, privacy::PrivacySeed(17, 4, 1, 2));
  EXPECT_EQ(privacy_seed, privacy::PrivacySeed(17, 3, 1, 2));
}

// ---------------------------------------------------------------------------
// Secure-aggregation masking
// ---------------------------------------------------------------------------

TEST(MaskingTest, FixedPointEncodeBasics) {
  const int bits = 20;
  EXPECT_EQ(privacy::FixedPointEncode(0.0f, bits), 0u);
  EXPECT_EQ(privacy::FixedPointEncode(1.0f, bits),
            static_cast<std::uint64_t>(1) << bits);
  // Negative values wrap in the mod-2^64 domain.
  EXPECT_EQ(privacy::FixedPointEncode(-1.0f, bits),
            static_cast<std::uint64_t>(
                -(static_cast<std::int64_t>(1) << bits)));
  // Non-finite uploads (screening disabled) quantise to zero, not UB.
  EXPECT_EQ(
      privacy::FixedPointEncode(std::numeric_limits<float>::quiet_NaN(),
                                bits),
      0u);
  EXPECT_EQ(
      privacy::FixedPointEncode(std::numeric_limits<float>::infinity(),
                                bits),
      0u);
  // Huge magnitudes saturate at +/- 2^62 instead of overflowing llround.
  EXPECT_EQ(privacy::FixedPointEncode(1e30f, bits),
            static_cast<std::uint64_t>(std::int64_t{1} << 62));
  EXPECT_EQ(privacy::FixedPointEncode(-1e30f, bits),
            static_cast<std::uint64_t>(-(std::int64_t{1} << 62)));
}

TEST(MaskingTest, PairSeedsAreDistinctPerPairAndRound) {
  EXPECT_NE(privacy::PairSeed(9, 1, 0, 0, 1), privacy::PairSeed(9, 1, 0, 0, 2));
  EXPECT_NE(privacy::PairSeed(9, 1, 0, 0, 1), privacy::PairSeed(9, 2, 0, 0, 1));
  EXPECT_NE(privacy::PairSeed(9, 1, 0, 0, 1), privacy::PairSeed(9, 1, 1, 0, 1));
  EXPECT_EQ(privacy::PairSeed(9, 1, 0, 0, 1), privacy::PairSeed(9, 1, 0, 0, 1));
}

TEST(MaskingTest, FullCohortCancelsExactly) {
  util::Rng rng(21);
  std::vector<fl::FlatParams> uploads(5, fl::FlatParams(33));
  for (auto& upload : uploads) {
    for (float& v : upload) v = static_cast<float>(rng.Normal(0.0, 2.0));
  }
  std::vector<const fl::FlatParams*> pointers;
  for (const auto& upload : uploads) pointers.push_back(&upload);
  privacy::MaskOptions options;
  options.enabled = true;
  privacy::MaskedSumReport report =
      privacy::SimulateMaskedAggregation(7, 3, 0, pointers, options);
  EXPECT_TRUE(report.exact);
  EXPECT_EQ(report.cohort, 5);
  EXPECT_EQ(report.survivors, 5);
  EXPECT_EQ(report.pairs, 10);  // C(5,2)
  EXPECT_EQ(report.recovered_pairs, 0);
  EXPECT_EQ(report.recovery_seed_bytes, 0u);
}

TEST(MaskingTest, DropoutsAreRecoveredFromRevealedSeeds) {
  util::Rng rng(22);
  std::vector<fl::FlatParams> uploads(6, fl::FlatParams(17));
  for (auto& upload : uploads) {
    for (float& v : upload) v = static_cast<float>(rng.Normal(0.0, 1.0));
  }
  std::vector<const fl::FlatParams*> pointers;
  for (const auto& upload : uploads) pointers.push_back(&upload);
  pointers[1] = nullptr;  // two members drop mid-round
  pointers[4] = nullptr;
  privacy::MaskOptions options;
  options.enabled = true;
  privacy::MaskedSumReport report =
      privacy::SimulateMaskedAggregation(7, 5, 2, pointers, options);
  EXPECT_TRUE(report.exact);
  EXPECT_EQ(report.survivors, 4);
  // Survivor-survivor pairs C(4,2)=6 plus 2 dropouts x 4 survivors = 8
  // dangling pairs; the dropout-dropout pair exchanged nothing.
  EXPECT_EQ(report.pairs, 14);
  EXPECT_EQ(report.recovered_pairs, 8);
  EXPECT_EQ(report.recovery_seed_bytes, 8u * 8u);
}

TEST(MaskingTest, EmptyAndSingletonCohortsAreTriviallyExact) {
  privacy::MaskOptions options;
  options.enabled = true;
  std::vector<const fl::FlatParams*> nobody;
  EXPECT_TRUE(privacy::SimulateMaskedAggregation(1, 0, 0, nobody, options)
                  .exact);
  fl::FlatParams lone(9, 1.25f);
  std::vector<const fl::FlatParams*> one = {&lone};
  privacy::MaskedSumReport report =
      privacy::SimulateMaskedAggregation(1, 0, 0, one, options);
  EXPECT_TRUE(report.exact);
  EXPECT_EQ(report.pairs, 0);
}

std::vector<fl::FlatParams> RandomUploads(int members, std::size_t size,
                                          std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<fl::FlatParams> uploads(members, fl::FlatParams(size));
  for (auto& upload : uploads) {
    for (float& v : upload) v = static_cast<float>(rng.Normal(0.0, 1.0));
  }
  return uploads;
}

void ExpectSameReport(const privacy::MaskedSumReport& a,
                      const privacy::MaskedSumReport& b) {
  EXPECT_EQ(a.cohort, b.cohort);
  EXPECT_EQ(a.survivors, b.survivors);
  EXPECT_EQ(a.pairs, b.pairs);
  EXPECT_EQ(a.recovered_pairs, b.recovered_pairs);
  EXPECT_EQ(a.recovery_seed_bytes, b.recovery_seed_bytes);
  EXPECT_EQ(a.exact, b.exact);
}

TEST(MaskingTest, ReportIsIdenticalWithoutPoolAndAtEveryThreadCount) {
  // The vector is split into one range per pool runner; 17 words is fewer
  // than the runners of every pool here, 1025 and 4097 split mid-block.
  privacy::MaskOptions options;
  options.enabled = true;
  util::ThreadPool one(1), two(2), four(4);
  for (std::size_t size : {std::size_t{17}, std::size_t{1025},
                           std::size_t{4097}}) {
    SCOPED_TRACE(size);
    std::vector<fl::FlatParams> uploads = RandomUploads(7, size, 23 + size);
    std::vector<const fl::FlatParams*> pointers;
    for (const auto& upload : uploads) pointers.push_back(&upload);
    pointers[2] = nullptr;
    pointers[5] = nullptr;
    privacy::MaskedSumReport serial =
        privacy::SimulateMaskedAggregation(11, 4, 1, pointers, options);
    EXPECT_TRUE(serial.exact);
    EXPECT_EQ(serial.survivors, 5);
    for (util::ThreadPool* pool : {&one, &two, &four}) {
      SCOPED_TRACE(pool->num_threads());
      ExpectSameReport(serial, privacy::SimulateMaskedAggregation(
                                   11, 4, 1, pointers, options, pool));
    }
  }
}

TEST(MaskingTest, EveryDropoutSubsetUnmasksWithClosedFormCounts) {
  constexpr int kMembers = 6;
  std::vector<fl::FlatParams> uploads = RandomUploads(kMembers, 600, 24);
  privacy::MaskOptions options;
  options.enabled = true;
  util::ThreadPool pool(2);
  for (int dropped_mask = 0; dropped_mask < (1 << kMembers); ++dropped_mask) {
    SCOPED_TRACE(dropped_mask);
    std::vector<const fl::FlatParams*> pointers;
    int dropped = 0;
    for (int m = 0; m < kMembers; ++m) {
      const bool drops = (dropped_mask >> m) & 1;
      dropped += drops ? 1 : 0;
      pointers.push_back(drops ? nullptr : &uploads[m]);
    }
    const int survivors = kMembers - dropped;
    // Every pair with at least one survivor masks; each survivor-dropout
    // pair dangles and is recovered from its 8-byte seed.
    const std::int64_t pairs =
        kMembers * (kMembers - 1) / 2 - dropped * (dropped - 1) / 2;
    const std::int64_t recovered = survivors * dropped;
    for (util::ThreadPool* runner : {static_cast<util::ThreadPool*>(nullptr),
                                     &pool}) {
      privacy::MaskedSumReport report = privacy::SimulateMaskedAggregation(
          5, 2, 0, pointers, options, runner);
      EXPECT_TRUE(report.exact);
      EXPECT_EQ(report.survivors, survivors);
      EXPECT_EQ(report.pairs, pairs);
      EXPECT_EQ(report.recovered_pairs, recovered);
      EXPECT_EQ(report.recovery_seed_bytes,
                static_cast<std::uint64_t>(8 * recovered));
    }
  }
}

TEST(MaskingTest, MaskedUploadsHideEncodingsAndSumToTheDirectSum) {
  constexpr int kMembers = 5;
  constexpr std::size_t kSize = 1000;
  std::vector<fl::FlatParams> uploads = RandomUploads(kMembers, kSize, 25);
  privacy::MaskOptions options;
  options.enabled = true;
  std::vector<std::uint64_t> direct(kSize, 0), server(kSize, 0);
  std::vector<std::uint64_t> masked(kSize);
  for (int m = 0; m < kMembers; ++m) {
    privacy::MaskedUploadRange(3, 1, 0, m, kMembers, uploads[m], options, 0,
                               kSize, masked.data());
    std::size_t hidden = 0;
    for (std::size_t i = 0; i < kSize; ++i) {
      const std::uint64_t plain =
          privacy::FixedPointEncode(uploads[m][i], options.fixed_point_bits);
      hidden += masked[i] != plain ? 1 : 0;
      direct[i] += plain;
      server[i] += masked[i];
    }
    EXPECT_GE(hidden, kSize - 1) << "member " << m;
    // Counter-mode streams: any sub-range is drawn on its own and matches
    // the same words of the full masked upload.
    std::vector<std::uint64_t> slice(400);
    privacy::MaskedUploadRange(3, 1, 0, m, kMembers, uploads[m], options, 300,
                               slice.size(), slice.data());
    EXPECT_TRUE(std::equal(slice.begin(), slice.end(), masked.begin() + 300));
  }
  // No dropouts: the members' masks cancel word for word in the sum.
  EXPECT_EQ(server, direct);
}

// ---------------------------------------------------------------------------
// End-to-end: the overlay across every algorithm, DP determinism, FCRS resume
// ---------------------------------------------------------------------------

enum class Method { kFedAvg, kFedProx, kScaffold, kFedGen, kCluSamp,
                    kFedCross };

std::unique_ptr<fl::FlAlgorithm> MakeAlgorithm(Method method,
                                               const fl::AlgorithmConfig&
                                                   config) {
  data::FederatedDataset data = MakeToyFederated(10, 30, 3);
  models::ModelFactory factory = LinearFactory(4);
  switch (method) {
    case Method::kFedAvg:
      return std::make_unique<fl::FedAvg>(config, std::move(data), factory);
    case Method::kFedProx:
      return std::make_unique<fl::FedProx>(config, std::move(data), factory,
                                           0.1f);
    case Method::kScaffold:
      return std::make_unique<fl::Scaffold>(config, std::move(data), factory);
    case Method::kFedGen:
      return std::make_unique<fl::FedGen>(config, std::move(data), factory);
    case Method::kCluSamp:
      return std::make_unique<fl::CluSamp>(config, std::move(data), factory);
    case Method::kFedCross: {
      core::FedCrossOptions options;
      options.alpha = 0.9;
      return std::make_unique<core::FedCross>(config, std::move(data),
                                              factory, options);
    }
  }
  return nullptr;
}

const char* MethodName(Method method) {
  switch (method) {
    case Method::kFedAvg: return "fedavg";
    case Method::kFedProx: return "fedprox";
    case Method::kScaffold: return "scaffold";
    case Method::kFedGen: return "fedgen";
    case Method::kCluSamp: return "clusamp";
    case Method::kFedCross: return "fedcross";
  }
  return "?";
}

TEST(MaskingOverlayTest, MaskedRunsBitIdenticalAcrossAllSixAlgorithms) {
  // Masking is a verification overlay: the fixed-point masked sum is
  // FC_CHECKed against the direct sum inside the run, and the float
  // aggregation path is untouched — so a masked run's global model must be
  // bit-identical to the unmasked run's. Dropouts make some rounds exercise
  // the recovery path on the way.
  const Method methods[] = {Method::kFedAvg, Method::kFedProx,
                            Method::kScaffold, Method::kFedGen,
                            Method::kCluSamp, Method::kFedCross};
  for (Method method : methods) {
    SCOPED_TRACE(MethodName(method));
    fl::AlgorithmConfig config = ToyConfig();
    config.faults.profile.dropout_prob = 0.3;  // exercises mask recovery

    auto plain = MakeAlgorithm(method, config);
    plain->Run(3, 3);

    config.secure_agg.enabled = true;
    auto masked = MakeAlgorithm(method, config);
    masked->Run(3, 3);

    fl::FlatParams a = plain->GlobalParams();
    fl::FlatParams b = masked->GlobalParams();
    testing::ExpectParamsBitEqual(a, b);

    const fl::PrivacyStats& stats = masked->privacy_stats();
    EXPECT_GT(stats.mask_pairs, 0);
    EXPECT_EQ(plain->privacy_stats().mask_pairs, 0);
    if (plain->fault_stats().dropouts > 0) {
      EXPECT_GT(stats.mask_recoveries, 0);
    }
  }
}

TEST(MaskingOverlayTest, RecoveryActuallyFiresInTheSweep) {
  // Guard against the dropout draw never firing: under a 30% dropout rate
  // and 3 rounds x 4 clients, at least one cohort must have lost a member
  // (this pins the seed-dependent behaviour the bit-identity test relies
  // on).
  fl::AlgorithmConfig config = ToyConfig();
  config.faults.profile.dropout_prob = 0.3;
  config.secure_agg.enabled = true;
  auto masked = MakeAlgorithm(Method::kFedAvg, config);
  masked->Run(3, 3);
  EXPECT_GT(masked->fault_stats().dropouts, 0);
  EXPECT_GT(masked->privacy_stats().mask_recoveries, 0);
}

TEST(MaskingOverlayTest, ComposesWithLossyCodecAndScreening) {
  fl::AlgorithmConfig config = ToyConfig();
  config.codec.scheme = comm::Scheme::kInt8TopK;
  config.codec.topk_fraction = 0.25;
  config.screening.check_finite = true;
  config.faults.profile.dropout_prob = 0.25;

  auto plain = MakeAlgorithm(Method::kFedCross, config);
  plain->Run(3, 3);

  config.secure_agg.enabled = true;
  auto masked = MakeAlgorithm(Method::kFedCross, config);
  masked->Run(3, 3);

  fl::FlatParams a = plain->GlobalParams();
  fl::FlatParams b = masked->GlobalParams();
  testing::ExpectParamsBitEqual(a, b);
  EXPECT_GT(masked->privacy_stats().mask_pairs, 0);
}

TEST(DpEndToEndTest, EpsilonGrowsAndUsesTheActualSamplingRate) {
  fl::AlgorithmConfig config = ToyConfig();
  config.dp.clip_norm = 1.0f;
  config.dp.noise_multiplier = 1.2f;
  config.dp.delta = 1e-5;
  auto server = MakeAlgorithm(Method::kFedAvg, config);
  server->Run(4, 4);

  // 4 rounds at q = K/N = 4/10 composed through the accountant (sigma goes
  // through the same float32 config field the server reads).
  privacy::RdpAccountant expected;
  for (int r = 0; r < 4; ++r) {
    expected.AccumulateRound(0.4, static_cast<double>(1.2f));
  }
  EXPECT_EQ(server->accountant().rounds(), 4);
  EXPECT_EQ(server->privacy_epsilon(), expected.Epsilon(1e-5));
  EXPECT_TRUE(std::isfinite(server->privacy_epsilon()));
}

TEST(DpEndToEndTest, ClipOnlyRunLeavesTheLedgerEmpty) {
  fl::AlgorithmConfig config = ToyConfig();
  config.dp.clip_norm = 0.05f;  // aggressive clip, no noise
  auto server = MakeAlgorithm(Method::kFedAvg, config);
  server->Run(3, 3);
  EXPECT_EQ(server->accountant().rounds(), 0);
  EXPECT_GT(server->privacy_stats().clipped, 0);
}

TEST(CheckpointV5Test, EpsilonSurvivesKillAndResumeBitExactly) {
  const std::string path = TempPath("privacy_resume.ckpt");
  fl::AlgorithmConfig config = ToyConfig();
  config.dp.clip_norm = 1.0f;
  config.dp.noise_multiplier = 1.5f;
  config.secure_agg.enabled = true;
  config.faults.profile.dropout_prob = 0.2;

  auto full = MakeAlgorithm(Method::kFedCross, config);
  full->Run(6, 6);

  {
    auto first = MakeAlgorithm(Method::kFedCross, config);
    first->EnableAutoCheckpoint(path, 1);
    first->Run(3, 6);
    // The instance dies here; only the FCRS file survives.
  }

  auto resumed = MakeAlgorithm(Method::kFedCross, config);
  ASSERT_TRUE(resumed->LoadCheckpoint(path).ok());
  EXPECT_EQ(resumed->completed_rounds(), 3);
  EXPECT_EQ(resumed->accountant().rounds(), 3);
  resumed->Run(6, 6);

  // The resumed ledger composed rounds 4..6 on top of the restored totals;
  // bit-exact restore means bit-equal epsilon and bit-equal model.
  EXPECT_EQ(resumed->privacy_epsilon(), full->privacy_epsilon());
  EXPECT_EQ(resumed->accountant().order_totals(),
            full->accountant().order_totals());
  EXPECT_EQ(resumed->privacy_stats().clipped,
            full->privacy_stats().clipped);
  EXPECT_EQ(resumed->privacy_stats().mask_pairs,
            full->privacy_stats().mask_pairs);
  fl::FlatParams a = full->GlobalParams();
  fl::FlatParams b = resumed->GlobalParams();
  testing::ExpectParamsBitEqual(a, b);
  std::remove(path.c_str());
}

TEST(CheckpointV5Test, DpConfigPerturbsTheFingerprint) {
  const std::string path = TempPath("privacy_fp.ckpt");
  fl::AlgorithmConfig config = ToyConfig();
  config.dp.clip_norm = 1.0f;
  config.dp.noise_multiplier = 1.0f;
  auto writer = MakeAlgorithm(Method::kFedAvg, config);
  writer->Run(2, 2);
  ASSERT_TRUE(writer->SaveCheckpoint(path).ok());

  // A run with different DP parameters must refuse the checkpoint: resuming
  // it would mis-account the spent budget.
  fl::AlgorithmConfig other = ToyConfig();
  other.dp.clip_norm = 1.0f;
  other.dp.noise_multiplier = 2.0f;
  auto reader = MakeAlgorithm(Method::kFedAvg, other);
  EXPECT_FALSE(reader->LoadCheckpoint(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fedcross
