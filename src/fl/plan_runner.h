#ifndef FEDCROSS_FL_PLAN_RUNNER_H_
#define FEDCROSS_FL_PLAN_RUNNER_H_

#include "fl/client.h"
#include "fl/model_pool.h"
#include "fl/types.h"
#include "util/rng.h"

namespace fedcross::fl {

// One client's local-training job for the execution-plan runner. All
// pointed-to data must stay valid until RunPlanJobs returns; `rng` is the
// job's own training stream (the same object the layer path would fork),
// consumed identically so both paths draw the same bits.
struct PlanJob {
  const FlClient* client = nullptr;
  const FlatParams* init_params = nullptr;
  const ClientTrainSpec* spec = nullptr;
  util::Rng* rng = nullptr;
  LocalTrainResult* result = nullptr;
};

// Trains `count` jobs on the execution-plan runtime. FL rounds call it with
// count == 1 (FlClient::Train, one job per pool task). With count > 1 the
// jobs run in lockstep: every job holds a pooled replica, advances one
// mini-batch per step, and steps whose batches share a shape are fused so
// each GEMM runs once across all of them (ops::GemmGrouped). Each job's
// parameter trajectory, loss accounting and RNG consumption are
// bit-identical to FlClient::Train's layer path. When the pooled topology
// has no plan (a layer kind with no lowering), every job falls back to the
// layer path transparently. Thread-compatible: concurrent calls on disjoint
// job ranges share only the (internally locked) pool.
void RunPlanJobs(ModelPool& pool, const PlanJob* jobs, int count);

}  // namespace fedcross::fl

#endif  // FEDCROSS_FL_PLAN_RUNNER_H_
