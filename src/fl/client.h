#ifndef FEDCROSS_FL_CLIENT_H_
#define FEDCROSS_FL_CLIENT_H_

#include <memory>

#include "data/dataset.h"
#include "fl/faults.h"
#include "fl/model_pool.h"
#include "fl/types.h"
#include "models/model_zoo.h"
#include "util/rng.h"

namespace fedcross::fl {

// Extra ingredients some algorithms inject into local training.
struct ClientTrainSpec {
  TrainOptions options;

  // FedProx: adds (prox_mu/2)*||w - anchor||^2 to the local objective,
  // i.e. prox_mu*(w - anchor) to every gradient step.
  const FlatParams* prox_anchor = nullptr;
  float prox_mu = 0.0f;

  // SCAFFOLD: per-step flat gradient correction (c - c_i) added to the
  // model gradient, implementing the variance-reduced local update.
  const FlatParams* scaffold_correction = nullptr;

  // FedGen-style augmentation: synthetic examples mixed into each epoch,
  // loss-weighted by augment_weight.
  const data::Dataset* augment_data = nullptr;
  float augment_weight = 1.0f;
  int augment_batches_per_epoch = 1;
};

// Outcome of one client's local training.
struct LocalTrainResult {
  FlatParams params;        // trained model
  int num_samples = 0;      // |D_i|, the FedAvg aggregation weight
  int num_steps = 0;        // SGD steps taken (used by SCAFFOLD's c_i update)
  float lr = 0.0f;          // learning rate used
  double mean_loss = 0.0;   // mean training loss over all steps
  // Measured wire-frame sizes for this client's round (comm/wire.h codec):
  // the dispatch frame it received and the upload frame it produced (0 when
  // the upload never happened). Filled by FlAlgorithm::TrainClientJob.
  std::uint64_t wire_bytes_down = 0;
  std::uint64_t wire_bytes_up = 0;
  // True if the round produced no usable upload (dropout, straggler
  // timeout, or server-side rejection): params are unspecified and never
  // read — TrainClients never hands the result to an algorithm, and a
  // checkpoint stores none for it.
  bool dropped = false;
  // What, if anything, went wrong (see fl/faults.h).
  FaultKind fault = FaultKind::kNone;

  // --- Filled by FlAlgorithm around Train (never by FlClient itself) ---
  // Which client and dispatch slot produced this result. TrainClients
  // returns accepted uploads only (async ones in arrival order), so
  // algorithms must key on these instead of positional job metadata.
  std::int64_t client_id = -1;
  int slot = 0;
  // Async-engine provenance: the global model version this job was
  // dispatched against, its staleness tau = versions aggregated since, and
  // the staleness weight multiplier applied on top of num_samples. Sync
  // mode keeps staleness 0 and weight_scale exactly 1.0, so
  // `num_samples * weight_scale` is bit-identical to the historical
  // integer weight.
  std::int64_t dispatch_version = 0;
  int staleness = 0;
  double weight_scale = 1.0;
  // Straggler slowdown factor drawn for this job (1.0 when none fired);
  // feeds the virtual clock's compute term.
  double slowdown = 1.0;
  // The upload left the device mangled (fl/faults.h corruption). Kept
  // separate from `fault` because a later screening rejection overwrites
  // it, and the server still counts the corruption at arrival.
  bool upload_corrupt = false;
  // The DP mechanism (privacy/dp.h) scaled this upload's update down to the
  // clipping bound. Counted when the upload reaches the server, so a
  // buffered async upload carries it in the in-flight checkpoint table.
  bool dp_clipped = false;
};

// A simulated device: owns a training shard and can run local SGD on any
// dispatched model. Stateless across rounds (SCAFFOLD's c_i lives in the
// server, keyed by client id, mirroring the usual simulation setup).
class FlClient {
 public:
  FlClient(std::int64_t id, std::shared_ptr<const data::Dataset> dataset);

  std::int64_t id() const { return id_; }
  int num_samples() const { return dataset_->size(); }
  const data::Dataset& dataset() const { return *dataset_; }

  // Trains a pooled model replica initialised from `init_params` for
  // spec.options.local_epochs epochs, writing into `result` (whose buffers
  // are recycled round-over-round: at steady state this performs zero
  // tensor heap allocations). `rng` drives batch shuffling (forked
  // internally so client runs are reproducible). Resets every result field,
  // including dropped = false.
  void Train(ModelPool& pool, const FlatParams& init_params,
             const ClientTrainSpec& spec, util::Rng& rng,
             LocalTrainResult& result) const;

  // Convenience overload: trains a fresh factory-built model and returns
  // the result by value. Equivalent to the pooled overload with a one-shot
  // pool (bit-identical results); kept for tests and standalone callers.
  LocalTrainResult Train(const models::ModelFactory& factory,
                         const FlatParams& init_params,
                         const ClientTrainSpec& spec, util::Rng& rng) const;

 private:
  std::int64_t id_;
  std::shared_ptr<const data::Dataset> dataset_;
};

namespace detail {

// Adds the FedProx proximal gradient and/or the SCAFFOLD correction to
// freshly computed model gradients, walking the flat-offset layout. One
// compiled definition shared by the layer-path trainer and the execution-
// plan runner, so both paths apply bit-identical adjustments.
void AdjustGradients(nn::Sequential& model, const ClientTrainSpec& spec);

}  // namespace detail

}  // namespace fedcross::fl

#endif  // FEDCROSS_FL_CLIENT_H_
