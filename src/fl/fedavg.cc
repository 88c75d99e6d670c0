#include "fl/fedavg.h"

namespace fedcross::fl {

FedAvg::FedAvg(AlgorithmConfig config, data::FederatedDataset data,
               models::ModelFactory factory, std::string name)
    : FlAlgorithm(std::move(name), config, std::move(data),
                  std::move(factory)) {
  global_ = InitialParams();
}

ClientTrainSpec FedAvg::MakeClientSpec() const {
  ClientTrainSpec spec;
  spec.options = config().train;
  return spec;
}

void FedAvg::RunRound(int round) {
  std::vector<std::int64_t> selected;
  ClientTrainSpec spec = MakeClientSpec();
  std::vector<ClientJob> jobs;
  {
    PhaseScope phase(*this, RoundPhase::kDispatch);
    selected = SampleClients();
    jobs.resize(selected.size());
    for (std::size_t i = 0; i < selected.size(); ++i) {
      jobs[i] = {selected[i], &global_, &spec};
    }
  }
  std::span<const LocalTrainResult> results =
      TrainClients(round, /*salt=*/0, jobs);

  // Aggregate over pointers into the (recycled) results: no params copies.
  std::vector<const FlatParams*> local_models;
  std::vector<double> weights;
  local_models.reserve(results.size());
  weights.reserve(results.size());
  for (const LocalTrainResult& result : results) {
    // Staleness-scaled sample weight: scale is exactly 1.0 for a fresh
    // upload, so the product is bit-identical to the integer weight.
    weights.push_back(result.num_samples * result.weight_scale);
    local_models.push_back(&result.params);
  }
  if (local_models.empty()) return;  // every client dropped: keep the model
  Aggregate(local_models, weights, global_, global_);
}

void FedAvg::SaveExtraState(StateWriter& writer) {
  writer.WriteFloats(global_);
}

util::Status FedAvg::LoadExtraState(StateReader& reader) {
  FlatParams global;
  FC_RETURN_IF_ERROR(reader.ReadFloats(global));
  if (global.size() != global_.size()) {
    return util::Status::FailedPrecondition(
        "checkpointed global model has " + std::to_string(global.size()) +
        " params, model expects " + std::to_string(global_.size()));
  }
  global_ = std::move(global);
  return util::Status::Ok();
}

FedProx::FedProx(AlgorithmConfig config, data::FederatedDataset data,
                 models::ModelFactory factory, float mu)
    : FedAvg(config, std::move(data), std::move(factory), "FedProx"),
      mu_(mu) {
  FC_CHECK_GE(mu, 0.0f);
}

ClientTrainSpec FedProx::MakeClientSpec() const {
  ClientTrainSpec spec = FedAvg::MakeClientSpec();
  spec.prox_anchor = &global_;
  spec.prox_mu = mu_;
  return spec;
}

}  // namespace fedcross::fl
