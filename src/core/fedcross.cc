#include "core/fedcross.h"

#include <algorithm>
#include <cmath>

#include "fl/flat_ops.h"
#include "tensor/tensor_ops.h"

namespace fedcross::core {

const char* SelectionStrategyName(SelectionStrategy strategy) {
  switch (strategy) {
    case SelectionStrategy::kInOrder:
      return "in-order";
    case SelectionStrategy::kHighestSimilarity:
      return "highest-similarity";
    case SelectionStrategy::kLowestSimilarity:
      return "lowest-similarity";
  }
  return "unknown";
}

util::StatusOr<SelectionStrategy> ParseSelectionStrategy(
    const std::string& name) {
  if (name == "in-order" || name == "inorder") {
    return SelectionStrategy::kInOrder;
  }
  if (name == "highest-similarity" || name == "highest") {
    return SelectionStrategy::kHighestSimilarity;
  }
  if (name == "lowest-similarity" || name == "lowest") {
    return SelectionStrategy::kLowestSimilarity;
  }
  return util::Status::InvalidArgument("unknown selection strategy: " + name);
}

const char* SimilarityMeasureName(SimilarityMeasure measure) {
  switch (measure) {
    case SimilarityMeasure::kCosine:
      return "cosine";
    case SimilarityMeasure::kNegativeEuclidean:
      return "euclidean";
  }
  return "unknown";
}

util::StatusOr<SimilarityMeasure> ParseSimilarityMeasure(
    const std::string& name) {
  if (name == "cosine") return SimilarityMeasure::kCosine;
  if (name == "euclidean" || name == "negative-euclidean") {
    return SimilarityMeasure::kNegativeEuclidean;
  }
  return util::Status::InvalidArgument("unknown similarity measure: " + name);
}

double ModelSimilarity(const fl::FlatParams& x, const fl::FlatParams& y,
                       SimilarityMeasure measure) {
  FC_CHECK_EQ(x.size(), y.size());
  switch (measure) {
    case SimilarityMeasure::kCosine:
      return ops::CosineSimilarity(x, y);
    case SimilarityMeasure::kNegativeEuclidean: {
      double total = 0.0;
      for (std::size_t i = 0; i < x.size(); ++i) {
        double d = static_cast<double>(x[i]) - y[i];
        total += d * d;
      }
      return -std::sqrt(total);
    }
  }
  FC_CHECK(false) << "unreachable";
  return 0.0;
}

FedCross::FedCross(fl::AlgorithmConfig config, data::FederatedDataset data,
                   models::ModelFactory factory, FedCrossOptions options)
    : FlAlgorithm("FedCross", config, std::move(data), std::move(factory)),
      options_(options) {
  FC_CHECK_GE(options_.alpha, 0.0);
  FC_CHECK_LT(options_.alpha, 1.0);
  FC_CHECK_GE(options_.propeller_count, 0);
  FC_CHECK_GE(options_.dynamic_alpha_rounds, 0);
  FC_CHECK_GT(config.clients_per_round, 1)
      << "FedCross needs at least two middleware models";
  // Initialise the K middleware models from the common factory seed (the
  // paper dispatches homogeneous models; identical initialisation mirrors
  // FedAvg's single starting point).
  middleware_.assign(config.clients_per_round, InitialParams());
}

double FedCross::AlphaAt(int round) const {
  if (options_.dynamic_alpha_rounds <= 0) return options_.alpha;
  if (round < options_.dynamic_alpha_begin) return options_.alpha;
  int progress = round - options_.dynamic_alpha_begin;
  if (progress >= options_.dynamic_alpha_rounds) return options_.alpha;
  double fraction =
      static_cast<double>(progress + 1) / options_.dynamic_alpha_rounds;
  return options_.dynamic_alpha_start +
         (options_.alpha - options_.dynamic_alpha_start) * fraction;
}

int FedCross::SelectCollaborator(
    int model_index, int round,
    const std::vector<fl::FlatParams>& uploaded) const {
  int k = static_cast<int>(uploaded.size());
  FC_CHECK_GT(k, 1);
  switch (options_.strategy) {
    case SelectionStrategy::kInOrder:
      return (model_index + (round % (k - 1) + 1)) % k;
    case SelectionStrategy::kHighestSimilarity:
    case SelectionStrategy::kLowestSimilarity: {
      bool highest = options_.strategy == SelectionStrategy::kHighestSimilarity;
      int best = -1;
      double best_sim = highest ? -1e300 : 1e300;
      for (int j = 0; j < k; ++j) {
        if (j == model_index) continue;
        double sim = ModelSimilarity(uploaded[model_index], uploaded[j],
                                     options_.similarity);
        if ((highest && sim > best_sim) || (!highest && sim < best_sim)) {
          best_sim = sim;
          best = j;
        }
      }
      return best;
    }
  }
  FC_CHECK(false) << "unreachable";
  return -1;
}

fl::FlatParams FedCross::CrossAggregate(const fl::FlatParams& model,
                                        const fl::FlatParams& collaborator,
                                        double alpha) {
  FC_CHECK_EQ(model.size(), collaborator.size());
  fl::FlatParams fused;
  float a = static_cast<float>(alpha);
  fl::flat_ops::LinearCombine(a, model, 1.0f - a, collaborator, fused);
  return fused;
}

std::vector<int> FedCross::SelectPropellerIndices(int model_index, int round,
                                                  int k, int count) {
  FC_CHECK_GT(k, 1);
  FC_CHECK_GE(model_index, 0);
  FC_CHECK_LT(model_index, k);
  count = std::min(count, k - 1);
  // Walk forward from the in-order collaborator, skipping the model itself;
  // each other index is visited at most once per lap, so the selection is
  // duplicate-free by construction.
  std::vector<int> indices;
  indices.reserve(count);
  int j = (model_index + (round % (k - 1) + 1)) % k;
  while (static_cast<int>(indices.size()) < count) {
    if (j != model_index) indices.push_back(j);
    j = (j + 1) % k;
  }
  return indices;
}

void FedCross::RunRound(int round) {
  int k = config().clients_per_round;

  fl::ClientTrainSpec spec;
  spec.options = config().train;
  std::vector<ClientJob> jobs(k);
  {
    PhaseScope phase(*this, RoundPhase::kDispatch);
    // Algorithm 1 lines 4-5: random client selection, then shuffle so each
    // middleware model meets a fresh client (model i trains on L_c[i]).
    std::vector<std::int64_t> selected = SampleClients();
    rng().Shuffle(selected);
    for (int i = 0; i < k; ++i) {
      jobs[i] = {selected[i], &middleware_[i], &spec};
    }
  }

  // Lines 7-10: local training of every middleware model — the K clients
  // are independent, so they fan out across the client-training pool.
  std::span<const fl::LocalTrainResult> results =
      TrainClients(round, /*salt=*/0, jobs);

  PhaseScope phase(*this, RoundPhase::kAggregate);
  // Copy the uploads out of the shared (recycled) result buffers: the
  // similarity-based selection reads all of them while the new generation
  // is built. Copy-assign reuses last round's buffers. Uploads are keyed by
  // lane (result.slot), not position. A lane without an accepted upload (a
  // dropout, deadline miss or rejection — or, in async mode, one still in
  // flight) keeps its current middleware model; a stale async arrival is
  // staleness-blended toward it (weight_scale 1 is a plain copy).
  uploaded_.resize(k);
  for (int i = 0; i < k; ++i) uploaded_[i] = middleware_[i];
  for (const fl::LocalTrainResult& result : results) {
    const int lane = result.slot;
    FC_CHECK_GE(lane, 0);
    FC_CHECK_LT(lane, k);
    const double w = result.weight_scale;
    if (w >= 1.0) {
      uploaded_[lane] = result.params;
    } else {
      fl::flat_ops::LinearCombine(static_cast<float>(w), result.params,
                                  static_cast<float>(1.0 - w),
                                  middleware_[lane], uploaded_[lane]);
    }
  }

  // Lines 11-15: CoModelSel + CrossAggr.
  double alpha = AlphaAt(round);
  float a = static_cast<float>(alpha);
  bool use_propellers = options_.propeller_count > 0 &&
                        round < options_.propeller_rounds;
  next_.resize(k);
  for (int i = 0; i < k; ++i) {
    if (use_propellers) {
      // Propeller acceleration: average propeller_count distinct in-order-
      // selected models to share the (1 - alpha) mass.
      std::vector<int> propellers =
          SelectPropellerIndices(i, round, k, options_.propeller_count);
      propeller_mean_.assign(uploaded_[i].size(), 0.0f);
      for (int j : propellers) {
        fl::flat_ops::AddInto(propeller_mean_, uploaded_[j]);
      }
      fl::flat_ops::Scale(propeller_mean_,
                          1.0f / static_cast<float>(propellers.size()));
      fl::flat_ops::LinearCombine(a, uploaded_[i], 1.0f - a, propeller_mean_,
                                  next_[i]);
    } else {
      int co = SelectCollaborator(i, round, uploaded_);
      fl::flat_ops::LinearCombine(a, uploaded_[i], 1.0f - a, uploaded_[co],
                                  next_[i]);
    }
  }
  // Swap, don't move-assign: middleware_'s buffers become next round's
  // next_ scratch, so the pair recycles indefinitely.
  middleware_.swap(next_);
}

// Sum-then-scale mean, the order the deployable model has always used:
// AverageInto scales each term first, which would change its low bits and
// so every FedCross accuracy evaluated from it.
fl::FlatParams FedCross::GlobalParams() {
  return fl::flat_ops::Mean(middleware_);
}

void FedCross::SaveExtraState(fl::StateWriter& writer) {
  writer.WriteU64(middleware_.size());
  for (const fl::FlatParams& model : middleware_) writer.WriteFloats(model);
}

util::Status FedCross::LoadExtraState(fl::StateReader& reader) {
  std::uint64_t count = 0;
  FC_RETURN_IF_ERROR(reader.ReadU64(count));
  if (count != middleware_.size()) {
    return util::Status::FailedPrecondition(
        "checkpoint has " + std::to_string(count) +
        " middleware models, run has " + std::to_string(middleware_.size()));
  }
  for (fl::FlatParams& model : middleware_) {
    FC_RETURN_IF_ERROR(reader.ReadFloats(model));
    if (model.size() != static_cast<std::size_t>(model_size())) {
      return util::Status::FailedPrecondition(
          "checkpointed middleware model has " + std::to_string(model.size()) +
          " params, model expects " + std::to_string(model_size()));
    }
  }
  return util::Status::Ok();
}

}  // namespace fedcross::core
