#include "fl/algorithm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "fl/flat_ops.h"
#include "fl/parallel.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "privacy/dp.h"
#include "util/logging.h"
#include "util/mem_stats.h"
#include "util/thread_pool.h"

namespace fedcross::fl {
namespace {

// Span names for PhaseScope, indexed by RoundPhase. Static storage: the
// trace ring stores the pointer.
constexpr const char* kPhaseSpanNames[] = {
    "phase.dispatch", "phase.train",     "phase.screen",
    "phase.aggregate", "phase.eval",     "phase.checkpoint",
};

// Minimum coordinates per aggregation shard: below this the per-task
// overhead of the pool outweighs the bandwidth win, and tiny models keep
// the historical single-range walk.
constexpr std::int64_t kMinAggRangeElems = 4096;

// True when any observability sink wants per-phase timings.
bool ObservabilityActive() {
  return obs::MetricsEnabled() || obs::TracingEnabled() ||
         obs::EventsEnabled();
}

// Registry handles are resolved once per process; the addresses are stable
// across MetricsRegistry::Reset.
struct FlMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter& rounds = reg.GetCounter("fl.rounds");
  obs::Counter& client_jobs = reg.GetCounter("fl.clients.jobs");
  obs::Counter& uploads_accepted = reg.GetCounter("fl.uploads.accepted");
  obs::Counter& robust_aggregations = reg.GetCounter("fl.agg.robust");
  obs::Gauge& comm_down = reg.GetGauge("fl.comm.total_down_bytes");
  obs::Gauge& comm_up = reg.GetGauge("fl.comm.total_up_bytes");
  obs::Gauge& comm_wire_down = reg.GetGauge("fl.comm.total_wire_down_bytes");
  obs::Gauge& comm_wire_up = reg.GetGauge("fl.comm.total_wire_up_bytes");
  obs::Gauge& comm_wasted = reg.GetGauge("fl.comm.wasted_raw_bytes");
  obs::Gauge& comm_wire_wasted = reg.GetGauge("fl.comm.wasted_wire_bytes");
  obs::Gauge& faults_dropouts = reg.GetGauge("fl.faults.dropouts");
  obs::Gauge& faults_stragglers = reg.GetGauge("fl.faults.stragglers");
  obs::Gauge& faults_corrupted = reg.GetGauge("fl.faults.corrupted");
  obs::Gauge& faults_rejected = reg.GetGauge("fl.faults.rejected");
  obs::Gauge& faults_timeouts = reg.GetGauge("fl.faults.timeouts");
  obs::Gauge& faults_retries = reg.GetGauge("fl.faults.retries");
  obs::Gauge& virtual_time = reg.GetGauge("fl.clock.virtual_time");
  obs::Histogram& staleness = reg.GetHistogram("fl.staleness");
  obs::Gauge& population_resident =
      reg.GetGauge("fl.population.resident_clients");
  obs::Gauge& peak_rss = reg.GetGauge("fl.mem.peak_rss_bytes");
  obs::Histogram& round_ms = reg.GetHistogram("fl.round_ms");
  // Observed by SaveCheckpoint / LoadCheckpoint (fl/checkpoint.cc);
  // registered here so every snapshot lists them.
  obs::Histogram& checkpoint_save_ms =
      reg.GetHistogram("fl.checkpoint.save_ms");
  obs::Histogram& checkpoint_load_ms =
      reg.GetHistogram("fl.checkpoint.load_ms");
  // Privacy subsystem: the RDP accountant's running eps(delta) and the
  // cumulative clip / mask tallies.
  obs::Gauge& privacy_epsilon = reg.GetGauge("fl.privacy.epsilon");
  obs::Gauge& privacy_clipped = reg.GetGauge("fl.privacy.clipped_uploads");
  obs::Gauge& privacy_mask_pairs = reg.GetGauge("fl.privacy.mask_pairs");
  obs::Gauge& privacy_mask_recoveries =
      reg.GetGauge("fl.privacy.mask_recoveries");
};

FlMetrics& Metrics() {
  static FlMetrics* metrics = new FlMetrics();
  return *metrics;
}

// SplitMix64 finalizer: bijective avalanche mix.
std::uint64_t MixSeed(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Deterministic per-(run, round, batch, slot) seed for one client job. This
// derivation — not the shared run Rng — is what makes the parallel schedule
// bit-identical to the sequential one.
std::uint64_t ClientJobSeed(std::uint64_t seed, int round, int salt,
                            int slot) {
  std::uint64_t h = MixSeed(seed ^ 0x636c69656e74ULL);  // "client"
  h = MixSeed(h + static_cast<std::uint64_t>(round));
  h = MixSeed(h + static_cast<std::uint64_t>(salt));
  return MixSeed(h + static_cast<std::uint64_t>(slot));
}

// Seed for the codec's stochastic-rounding stream. Independent of both the
// training and the fault streams, so switching codecs never perturbs a
// client's training trajectory, and the identity codec (which draws
// nothing) is bit-identical to pre-codec runs.
std::uint64_t CodecSeed(std::uint64_t seed, int round, int salt, int slot) {
  std::uint64_t h = MixSeed(seed ^ 0x636f646563ULL);  // "codec"
  h = MixSeed(h + static_cast<std::uint64_t>(round));
  h = MixSeed(h + static_cast<std::uint64_t>(salt));
  return MixSeed(h + static_cast<std::uint64_t>(slot));
}

// Salt stride between retry attempts of the same slot. Every in-round
// salt is tiny (FedCluster uses salt = cluster step < K), so attempt k's
// streams — derived from salt + k * stride — can never collide with another
// job's.
constexpr int kRetrySaltStride = 1 << 16;

// Local-work estimate for a job that never trained (deadline miss):
// what FlClient::Train would have counted — epochs times per-epoch batches,
// including the ragged tail batch.
double NominalSteps(const TrainOptions& train, int num_samples) {
  int batch = std::max(1, train.batch_size);
  int batches = (num_samples + batch - 1) / batch;
  return static_cast<double>(train.local_epochs) * batches;
}

// Per-dispatch compute jitter factor, uniform in [1, 1 + jitter]. A zero
// jitter draws nothing, so the default clock consumes no stream entropy.
double DrawJitter(const ClockModel& clock, util::Rng& clock_rng) {
  if (clock.jitter <= 0.0) return 1.0;
  return 1.0 + clock_rng.Uniform(0.0, clock.jitter);
}

}  // namespace

FlAlgorithm::PhaseScope::PhaseScope(FlAlgorithm& algo, RoundPhase phase)
    : phase_(phase) {
  if (ObservabilityActive()) {
    algo_ = &algo;
    start_us_ = obs::TraceNowMicros();
  }
}

FlAlgorithm::PhaseScope::~PhaseScope() {
  if (algo_ == nullptr) return;
  std::int64_t end_us = obs::TraceNowMicros();
  algo_->phase_ms_[static_cast<int>(phase_)] +=
      static_cast<double>(end_us - start_us_) / 1000.0;
  if (obs::TracingEnabled()) {
    obs::TraceRecorder::Global().RecordComplete(
        kPhaseSpanNames[static_cast<int>(phase_)], start_us_,
        end_us - start_us_);
  }
}

FlAlgorithm::FlAlgorithm(std::string name, AlgorithmConfig config,
                         data::FederatedDataset data,
                         models::ModelFactory factory)
    : name_(std::move(name)),
      config_(config),
      factory_(std::move(factory)),
      pool_(factory_),
      population_(config.population, data),
      test_(std::move(data.test)),
      rng_(config.seed) {
  FC_CHECK(test_ != nullptr);
  FC_CHECK_GT(config_.clients_per_round, 0);
  FC_CHECK_LE(static_cast<std::int64_t>(config_.clients_per_round),
              population_.size())
      << "K exceeds the number of clients";
  residual_store_.Configure(config_.state_store);
  // Probe the pool's first replica once for the model size and the factory's
  // initial parameters; the replica is recycled by every later job.
  ModelPool::Lease probe = pool_.Acquire();
  model_size_ = probe->model.NumParams();
  initial_params_ = probe->model.ParamsToFlat();
  // The wire shape table: per-tensor lengths of the flattened model, in
  // flattening order. Every frame carries and validates it.
  for (const nn::Param* param : probe->model.Params()) {
    shape_table_.push_back(static_cast<std::uint32_t>(param->value.numel()));
  }
  dispatch_wire_bytes_ = comm::DispatchWireBytes(
      static_cast<std::uint64_t>(model_size_), shape_table_);
}

const MetricsHistory& FlAlgorithm::Run(int rounds, int eval_every,
                                       bool verbose) {
  FC_CHECK_GT(eval_every, 0);
  for (int round = completed_rounds_; round < rounds; ++round) {
    // Snapshot observability state once per round: sinks toggled mid-round
    // would otherwise leave a half-timed event.
    const bool observe = ObservabilityActive();
    const std::int64_t round_start_us = observe ? obs::TraceNowMicros() : 0;
    const FaultStats faults_before = fault_stats_;
    const PrivacyStats privacy_before = privacy_stats_;
    if (observe) {
      for (double& ms : phase_ms_) ms = 0.0;
    }

    comm_.BeginRound();
    round_loss_sum_ = 0.0;
    round_loss_count_ = 0;
    round_staleness_sum_ = 0.0;
    round_staleness_count_ = 0;
    round_staleness_max_ = 0;
    bool evaluated = false;
    EvalResult eval;
    double mean_client_loss = 0.0;
    {
      obs::ScopedSpan round_span("fl.round", round + 1);
      RunRound(round);
      completed_rounds_ = round + 1;
      if (observe) {
        // Read-only preview of what TakeRoundClientLoss() would return, so
        // the event carries the round's mean client loss without consuming
        // the accumulator eval rounds read below.
        mean_client_loss = round_loss_count_ > 0
                               ? round_loss_sum_ / round_loss_count_
                               : 0.0;
      }
      if ((round + 1) % eval_every == 0 || round == rounds - 1) {
        {
          PhaseScope phase(*this, RoundPhase::kEval);
          eval = Evaluate(GlobalParams());
        }
        evaluated = true;
        RoundRecord record;
        record.round = round + 1;
        record.test_loss = eval.loss;
        record.test_accuracy = eval.accuracy;
        record.bytes_up = static_cast<double>(comm_.round_upload_bytes());
        record.bytes_down = static_cast<double>(comm_.round_download_bytes());
        record.mean_client_loss = TakeRoundClientLoss();
        history_.Add(record);
        if (verbose) {
          FC_LOG(Info) << name_ << " round " << record.round << " acc "
                       << record.test_accuracy << " loss " << record.test_loss;
        }
      }
      if (checkpoint_every_ > 0 &&
          ((round + 1) % checkpoint_every_ == 0 || round == rounds - 1)) {
        PhaseScope phase(*this, RoundPhase::kCheckpoint);
        util::Status saved = SaveCheckpoint(checkpoint_path_);
        if (!saved.ok()) {
          FC_LOG(Warning) << name_ << " checkpoint to " << checkpoint_path_
                          << " failed: " << saved.ToString();
        }
      }
    }
    if (observe) {
      RecordRoundObservations(round, round_start_us, faults_before,
                              privacy_before, evaluated, eval,
                              mean_client_loss);
    }
  }
  return history_;
}

void FlAlgorithm::RecordRoundObservations(int round,
                                          std::int64_t round_start_us,
                                          const FaultStats& faults_before,
                                          const PrivacyStats& privacy_before,
                                          bool evaluated,
                                          const EvalResult& eval,
                                          double mean_client_loss) {
  const double round_ms =
      static_cast<double>(obs::TraceNowMicros() - round_start_us) / 1000.0;

  if (obs::MetricsEnabled()) {
    FlMetrics& m = Metrics();
    m.rounds.Add(1);
    m.round_ms.Observe(round_ms);
    // Satellite fold: communication totals and cumulative fault stats become
    // gauges, so one metrics snapshot carries the whole run's accounting.
    // CommTracker itself stays the source of truth for Table I.
    m.comm_down.Set(static_cast<double>(comm_.total_download_bytes()));
    m.comm_up.Set(static_cast<double>(comm_.total_upload_bytes()));
    m.comm_wire_down.Set(
        static_cast<double>(comm_.total_wire_download_bytes()));
    m.comm_wire_up.Set(static_cast<double>(comm_.total_wire_upload_bytes()));
    m.comm_wasted.Set(static_cast<double>(comm_.total_wasted_bytes()));
    m.comm_wire_wasted.Set(
        static_cast<double>(comm_.total_wire_wasted_bytes()));
    m.faults_dropouts.Set(static_cast<double>(fault_stats_.dropouts));
    m.faults_stragglers.Set(static_cast<double>(fault_stats_.stragglers));
    m.faults_corrupted.Set(static_cast<double>(fault_stats_.corrupted));
    m.faults_rejected.Set(static_cast<double>(fault_stats_.rejected));
    m.faults_timeouts.Set(static_cast<double>(fault_stats_.timeouts));
    m.faults_retries.Set(static_cast<double>(fault_stats_.retries));
    m.virtual_time.Set(virtual_now_);
    m.population_resident.Set(
        static_cast<double>(population_.resident_clients()));
    m.peak_rss.Set(static_cast<double>(util::PeakRssBytes()));
    // eps gauge follows the event encoding: -1 stands in for +infinity
    // (clip-only runs carry no guarantee).
    const double eps = privacy_epsilon();
    m.privacy_epsilon.Set(std::isfinite(eps) ? eps : -1.0);
    m.privacy_clipped.Set(static_cast<double>(privacy_stats_.clipped));
    m.privacy_mask_pairs.Set(static_cast<double>(privacy_stats_.mask_pairs));
    m.privacy_mask_recoveries.Set(
        static_cast<double>(privacy_stats_.mask_recoveries));
  }

  if (obs::EventsEnabled()) {
    obs::RoundEvent event;
    event.algorithm = name_;
    event.round = round + 1;
    event.round_ms = round_ms;
    event.dispatch_ms = phase_ms_[static_cast<int>(RoundPhase::kDispatch)];
    event.train_ms = phase_ms_[static_cast<int>(RoundPhase::kTrain)];
    event.screen_ms = phase_ms_[static_cast<int>(RoundPhase::kScreen)];
    event.aggregate_ms = phase_ms_[static_cast<int>(RoundPhase::kAggregate)];
    event.eval_ms = phase_ms_[static_cast<int>(RoundPhase::kEval)];
    event.checkpoint_ms =
        phase_ms_[static_cast<int>(RoundPhase::kCheckpoint)];
    event.evaluated = evaluated;
    event.test_accuracy = evaluated ? eval.accuracy : 0.0;
    event.test_loss = evaluated ? eval.loss : 0.0;
    event.mean_client_loss = mean_client_loss;
    event.bytes_down = static_cast<double>(comm_.round_download_bytes());
    event.bytes_up = static_cast<double>(comm_.round_upload_bytes());
    event.wire_bytes_down =
        static_cast<double>(comm_.round_wire_download_bytes());
    event.wire_bytes_up = static_cast<double>(comm_.round_wire_upload_bytes());
    event.wire_bytes_wasted =
        static_cast<double>(comm_.round_wire_wasted_bytes());
    event.dropouts = fault_stats_.dropouts - faults_before.dropouts;
    event.stragglers = fault_stats_.stragglers - faults_before.stragglers;
    event.corrupted = fault_stats_.corrupted - faults_before.corrupted;
    event.rejected = fault_stats_.rejected - faults_before.rejected;
    event.timeouts = fault_stats_.timeouts - faults_before.timeouts;
    event.async_retries = fault_stats_.retries - faults_before.retries;
    event.virtual_time = virtual_now_;
    event.model_version = model_version_;
    event.inflight = inflight_dispatches();
    event.staleness_mean = round_staleness_count_ > 0
                               ? round_staleness_sum_ / round_staleness_count_
                               : 0.0;
    event.staleness_max = round_staleness_max_;
    event.resident_clients = population_.resident_clients();
    event.peak_rss_bytes = util::PeakRssBytes();
    // JSON has no infinity: -1 encodes "no guarantee" (clip without noise).
    const double eps = privacy_epsilon();
    event.dp_epsilon = std::isfinite(eps) ? eps : -1.0;
    event.dp_delta = config_.dp.delta;
    event.dp_clipped = privacy_stats_.clipped - privacy_before.clipped;
    event.mask_pairs = privacy_stats_.mask_pairs - privacy_before.mask_pairs;
    event.mask_recoveries =
        privacy_stats_.mask_recoveries - privacy_before.mask_recoveries;
    obs::EmitRoundEvent(event);
  }
}

void FlAlgorithm::EnableAutoCheckpoint(std::string path, int every_rounds) {
  checkpoint_path_ = std::move(path);
  checkpoint_every_ = checkpoint_path_.empty() ? 0 : every_rounds;
}

EvalResult FlAlgorithm::Evaluate(const FlatParams& params) {
  return EvaluateParams(pool_, params, *test_, config_.eval_batch_size);
}

std::vector<std::int64_t> FlAlgorithm::SampleClients() {
  std::int64_t want = config_.clients_per_round;
  if (config_.faults.over_provision > 0) {
    want = std::min(num_clients(),
                    want + static_cast<std::int64_t>(
                               config_.faults.over_provision));
  }
  ClientSampler sampler = config_.sampler;
  if (sampler == ClientSampler::kAuto) {
    sampler = population_.mode() == PopulationMode::kVirtual
                  ? ClientSampler::kFloyd
                  : ClientSampler::kFullShuffle;
  }
  if (sampler == ClientSampler::kFloyd) {
    return rng_.SampleDistinct(num_clients(), want);
  }
  // Historical full-shuffle draw sequence: O(N) per round, bit-compatible
  // with checkpoints and golden results recorded before the Floyd sampler.
  FC_CHECK_LE(num_clients(),
              static_cast<std::int64_t>(std::numeric_limits<int>::max()))
      << "full-shuffle sampling caps N at int range; use the Floyd sampler";
  std::vector<int> legacy = rng_.SampleWithoutReplacement(
      static_cast<int>(num_clients()), static_cast<int>(want));
  return std::vector<std::int64_t>(legacy.begin(), legacy.end());
}

std::span<const LocalTrainResult> FlAlgorithm::TrainClients(
    int round, int salt, const std::vector<ClientJob>& jobs) {
  const int count = static_cast<int>(jobs.size());
  Metrics().client_jobs.Add(count);
  if (static_cast<int>(wire_scratch_.size()) < count) {
    wire_scratch_.resize(count);
  }
  if (results_.size() < jobs.size()) results_.resize(jobs.size());
  outcomes_.resize(count);
  // Resolve every slot's client and residual entry on the calling thread
  // before the fan-out: the population cache and the state store are not
  // thread-safe, and both guarantee pointer stability until their next
  // BeginBatch. Workers then only dereference pre-pinned pointers.
  population_.BeginBatch();
  residual_store_.BeginBatch();
  const bool lossy = comm::SchemeIsLossy(config_.codec.scheme);
  client_slots_.resize(count);
  residual_slots_.resize(count);
  for (int slot = 0; slot < count; ++slot) {
    FC_CHECK_GE(jobs[slot].client_id, 0);
    FC_CHECK_LT(jobs[slot].client_id, num_clients());
    client_slots_[slot] = &population_.Client(jobs[slot].client_id);
    residual_slots_[slot] =
        lossy ? &residual_store_.Touch(jobs[slot].client_id) : nullptr;
  }

  // Sync is the degenerate async schedule: one attempt per slot raced
  // against the fault model's round deadline (no timeout, no retries), a
  // buffer that is the whole cohort taken in slot order, and a clock that
  // only observes. Async swaps the deadline for dispatch_timeout +
  // max_retries and pops the in-flight heap until the buffer is full.
  const AsyncOptions& async = config_.async;
  const bool sync = async.mode == RoundMode::kSync;
  const double round_deadline = sync ? config_.faults.round_deadline : 0.0;
  const double timeout = sync ? 0.0 : async.dispatch_timeout;
  const int max_retries = sync ? 0 : async.max_retries;
  const double t_round = virtual_now_;
  const std::int64_t version = model_version_;
  const bool screen = config_.screening.Enabled();

  // Dispatch every slot, running its whole timeout/retry chain to a
  // terminal outcome on the worker: clients are simulations, so nothing
  // actually waits — "in flight" is just an arrival timestamp. Each attempt
  // derives its training / fault / codec / clock / privacy streams from
  // `salt + attempt * stride`, making the outcome a pure function of
  // (seed, round, salt, slot, attempt) — bit-identical across thread
  // counts — with retry streams that cannot collide with other batches'.
  auto dispatch_slot = [&](int slot) {
    DispatchOutcome& out = outcomes_[slot];
    out.attempts.clear();
    out.retries = 0;
    const ClientJob& job = jobs[slot];
    ClockProfile profile =
        DrawClockProfile(async.clock, config_.seed, job.client_id);
    double t_dispatch = t_round;
    for (int attempt = 0;; ++attempt) {
      int attempt_salt = salt + attempt * kRetrySaltStride;
      util::Rng job_rng(ClientJobSeed(config_.seed, round, attempt_salt, slot));
      util::Rng fault_rng(FaultSeed(config_.seed, round, attempt_salt, slot));
      util::Rng codec_rng(CodecSeed(config_.seed, round, attempt_salt, slot));
      util::Rng clock_rng(ClockSeed(config_.seed, round, attempt_salt, slot));
      util::Rng privacy_rng(
          privacy::PrivacySeed(config_.seed, round, attempt_salt, slot));
      LocalTrainResult& result = results_[slot];
      TrainClientJob(job, *client_slots_[slot], residual_slots_[slot],
                     job_rng, fault_rng, codec_rng, privacy_rng,
                     round_deadline, wire_scratch_[slot], result);
      result.client_id = job.client_id;
      result.slot = slot;
      result.dispatch_version = version;
      double jitter = DrawJitter(async.clock, clock_rng);
      double steps = static_cast<double>(result.num_steps);
      double slowdown = result.slowdown;
      if (result.fault == FaultKind::kStraggler) {
        // The fault model timed the job out (only a sync round deadline
        // does): it holds the barrier for the full budget — deadline x the
        // fault-free compute time of the work it was sent — before the
        // server gives up on it.
        steps = NominalSteps(job.spec->options, result.num_samples);
        slowdown = round_deadline;
      }
      double duration =
          SimulatedDuration(profile, slowdown, steps, result.wire_bytes_down,
                            result.wire_bytes_up, jitter);
      // Dropout or deadline miss: the upload never happens.
      const bool vanished = result.dropped;
      // A dropout under a timeout is retried like a straggler: the server
      // cannot tell a vanished device from a slow one — both just miss the
      // deadline. Without a timeout the server notices the silence at the
      // would-be transfer time.
      const bool late = timeout > 0.0 && (vanished || duration > timeout);
      DispatchAttempt log;
      log.wire_down = result.wire_bytes_down;
      log.wire_up = vanished ? 0 : result.wire_bytes_up;
      log.uploaded = !vanished;
      log.timed_out = late;
      out.attempts.push_back(log);
      if (!late && !vanished) {
        // The upload arrives. Screen it now: the dispatched reference dies
        // with this TrainClients call, and rejection is terminal (a
        // Byzantine device is not worth a retry).
        if (screen) {
          util::Status verdict = ScreenUpload(*job.init_params, result.params,
                                              config_.screening);
          if (!verdict.ok()) {
            result.dropped = true;
            result.fault = FaultKind::kRejected;
          }
        }
        out.arrival = t_dispatch + duration;
        return;
      }
      double t_fail = late ? t_dispatch + timeout : t_dispatch + duration;
      if (late && attempt < max_retries) {
        ++out.retries;
        t_dispatch = t_fail;
        continue;
      }
      if (late && !vanished) {
        // Terminal timeout of a device that did train: degrade like a
        // deadline straggler.
        result.dropped = true;
        result.fault = FaultKind::kStraggler;
      }
      out.arrival = t_fail;
      return;
    }
  };
  {
    PhaseScope phase(*this, RoundPhase::kTrain);
    util::ThreadPool* pool = AcquireFlPool();
    if (pool != nullptr && count > 1) {
      pool->ParallelFor(count, dispatch_slot);
    } else {
      for (int slot = 0; slot < count; ++slot) dispatch_slot(slot);
    }
  }

  PhaseScope phase(*this, RoundPhase::kScreen);
  // Fold the dispatch logs serially in slot order — comm accounting, wasted
  // bytes (every non-final attempt bought nothing; so did the final one
  // when the slot terminally failed), timeout/retry tallies. Async then
  // pushes the terminal event onto the in-flight heap.
  auto after = [](const PendingUpload& a, const PendingUpload& b) {
    return a.arrival != b.arrival ? a.arrival > b.arrival : a.seq > b.seq;
  };
  const std::uint64_t raw = CommTracker::FloatBytes(model_size_);
  for (int slot = 0; slot < count; ++slot) {
    DispatchOutcome& out = outcomes_[slot];
    int attempts = static_cast<int>(out.attempts.size());
    for (int a = 0; a < attempts; ++a) {
      const DispatchAttempt& log = out.attempts[a];
      comm_.AddDownload(raw, log.wire_down);
      if (log.uploaded) comm_.AddUpload(raw, log.wire_up);
      if (log.timed_out) ++fault_stats_.timeouts;
      if (a + 1 < attempts || results_[slot].dropped) {
        comm_.AddWasted(log.uploaded ? raw * 2 : raw,
                        log.wire_down + (log.uploaded ? log.wire_up : 0));
      }
    }
    fault_stats_.retries += out.retries;
    if (!sync) {
      inflight_.push_back(PendingUpload{out.arrival, dispatch_seq_++,
                                        std::move(results_[slot])});
      std::push_heap(inflight_.begin(), inflight_.end(), after);
    }
  }

  // Consume terminal outcomes as they reach the server: advance the clock,
  // tally faults / clips / staleness / loss, and swap accepted uploads to
  // the front of results_. In sync mode slot s only ever swaps with an
  // already-consumed dropped slot before it, so uploads keep slot order.
  const bool masking = config_.secure_agg.Enabled();
  std::size_t accepted = 0;
  mask_indices_.clear();
  auto consume = [&](LocalTrainResult& result, double arrival) {
    virtual_now_ = std::max(virtual_now_, arrival);
    // Corruption and clipping are counted when the upload reaches the
    // server, whether or not screening then discarded it; a dropout or a
    // deadline miss never uploaded at all.
    if (result.upload_corrupt && (result.fault == FaultKind::kCorrupted ||
                                  result.fault == FaultKind::kRejected)) {
      ++fault_stats_.corrupted;
    }
    if (result.dp_clipped &&
        (!result.dropped || result.fault == FaultKind::kRejected)) {
      ++privacy_stats_.clipped;
    }
    // The masking cohort is the second mode policy. Sync: the dispatch
    // cohort, every slot. Async: the popped arrivals plus the rejected ones
    // — dropouts and terminal stragglers never uploaded a masked sum.
    // Dropped members (-1) are the ones whose masks recovery reconstructs.
    // Indices, not pointers: results_ may reallocate.
    if (masking && (sync || !result.dropped ||
                    result.fault == FaultKind::kRejected)) {
      mask_indices_.push_back(result.dropped ? -1
                                             : static_cast<int>(accepted));
    }
    if (result.dropped) {
      if (result.fault == FaultKind::kDropout) ++fault_stats_.dropouts;
      if (result.fault == FaultKind::kStraggler) ++fault_stats_.stragglers;
      if (result.fault == FaultKind::kRejected) ++fault_stats_.rejected;
      return false;
    }
    const int tau = static_cast<int>(model_version_ - result.dispatch_version);
    result.staleness = tau;
    result.weight_scale =
        StalenessWeight(async.staleness, async.staleness_exponent, tau);
    round_staleness_sum_ += tau;
    ++round_staleness_count_;
    round_staleness_max_ = std::max(round_staleness_max_, tau);
    // A sync upload is never stale (tau = 0, weight 1), so only async
    // arrivals feed the staleness histogram.
    if (!sync && obs::MetricsEnabled()) {
      Metrics().staleness.Observe(static_cast<double>(tau));
    }
    Metrics().uploads_accepted.Add(1);
    round_loss_sum_ += result.mean_loss;
    ++round_loss_count_;
    if (accepted == results_.size()) results_.emplace_back();
    if (&result != &results_[accepted]) std::swap(results_[accepted], result);
    ++accepted;
    return true;
  };
  if (sync) {
    // The barrier waits for every slot: take them all in slot order.
    for (int slot = 0; slot < count; ++slot) {
      consume(results_[slot], outcomes_[slot].arrival);
    }
  } else {
    // Collect arrivals in (arrival, seq) order until `buffer_size` usable
    // uploads land or nothing is in flight. Dropped / rejected arrivals
    // free their buffer slot, so a straggler-heavy cohort degrades the
    // round instead of stalling it.
    const int want = async.buffer_size > 0 ? async.buffer_size : count;
    int collected = 0;
    while (collected < want && !inflight_.empty()) {
      std::pop_heap(inflight_.begin(), inflight_.end(), after);
      PendingUpload event = std::move(inflight_.back());
      inflight_.pop_back();
      if (consume(event.result, event.arrival)) ++collected;
    }
  }

  // Secure-aggregation overlay over this aggregation event's cohort. Pair
  // masks key on cohort position, so duplicate client ids (the same client
  // sampled by overlapping async rounds) still cancel exactly.
  if (!mask_indices_.empty()) {
    mask_slots_.clear();
    for (int index : mask_indices_) {
      mask_slots_.push_back(index < 0 ? nullptr : &results_[index].params);
    }
    ApplyMaskingOverlay(round, salt, mask_slots_);
  }
  // Every dispatched job ran the DP mechanism once, so one noised event at
  // this batch's actual sampling rate enters the RDP ledger — regardless of
  // when its upload is collected (FedCluster's per-cluster batches compose
  // as separate events, exactly as the mechanism fires).
  if (config_.dp.Noised() && count > 0) {
    accountant_.AccumulateRound(
        std::min(1.0, static_cast<double>(count) /
                          static_cast<double>(num_clients())),
        config_.dp.noise_multiplier);
  }
  // The aggregation the caller performs on these results is one version.
  ++model_version_;
  return {results_.data(), accepted};
}

void FlAlgorithm::ApplyMaskingOverlay(
    int round, int salt, const std::vector<const FlatParams*>& uploads) {
  privacy::MaskedSumReport report = privacy::SimulateMaskedAggregation(
      config_.seed, round, salt, uploads, config_.secure_agg,
      AcquireFlPool());
  FC_CHECK(report.exact)
      << "masked aggregate failed to unmask to the direct fixed-point sum "
         "(cohort "
      << report.cohort << ", survivors " << report.survivors << ", pairs "
      << report.pairs << ", recovered " << report.recovered_pairs << ")";
  privacy_stats_.mask_pairs += report.pairs;
  privacy_stats_.mask_recoveries += report.recovered_pairs;
  // Recovery is the only masking step that costs extra wire traffic: the
  // surviving peers upload 8 bytes of revealed pair seed per dangling mask.
  if (report.recovery_seed_bytes > 0) {
    comm_.AddUpload(report.recovery_seed_bytes, report.recovery_seed_bytes);
  }
}

void FlAlgorithm::TrainClientJob(const ClientJob& job, const FlClient& client,
                                 FlatParams* residual, util::Rng& rng,
                                 util::Rng& fault_rng, util::Rng& codec_rng,
                                 util::Rng& privacy_rng, double round_deadline,
                                 WireScratch& wire, LocalTrainResult& result) {
  FC_CHECK(job.init_params != nullptr);
  FC_CHECK(job.spec != nullptr);

  const FaultProfile& profile = config_.faults.ProfileFor(job.client_id);
  FaultDecision decision = DrawFaults(profile, round_deadline, fault_rng);

  // Dropout / straggler timeout: the device received the model (the
  // dispatch frame still crossed the wire) but its upload never reaches the
  // round. params are left as they are: a dropped result is never read.
  if (decision.dropped || decision.timed_out) {
    result.num_samples = client.num_samples();
    result.num_steps = 0;
    result.lr = 0.0f;
    result.mean_loss = 0.0;
    result.wire_bytes_down = dispatch_wire_bytes_;
    result.wire_bytes_up = 0;
    result.dropped = true;
    result.fault =
        decision.dropped ? FaultKind::kDropout : FaultKind::kStraggler;
    result.staleness = 0;
    result.weight_scale = 1.0;
    result.slowdown = decision.duration;
    result.upload_corrupt = false;
    result.dp_clipped = false;
    return;
  }

  // Dispatch round trip: the client trains on the decoded frame, never on
  // the server's in-process pointer. Dispatch frames are identity-coded, so
  // the decoded params are bit-identical to *job.init_params.
  comm::EncodeDispatch(*job.init_params, shape_table_, wire.frame);
  result.wire_bytes_down = wire.frame.size();
  util::Status dispatched =
      comm::DecodeDispatch(wire.frame, shape_table_, wire.dispatched);
  FC_CHECK(dispatched.ok()) << dispatched.ToString();

  client.Train(pool_, wire.dispatched, *job.spec, rng, result);

  // DP sanitisation before corruption and the upload codec: the mechanism
  // runs on-device against the dispatched reference, and its noise comes
  // from the dedicated privacy stream — never the training rng, whose draw
  // position must not depend on whether DP is enabled.
  result.dp_clipped = false;
  if (config_.dp.Enabled()) {
    result.dp_clipped = privacy::SanitizeUpdateInPlace(
        wire.dispatched, result.params, config_.dp, privacy_rng);
  }
  if (decision.corrupt) {
    CorruptUpload(profile, wire.dispatched, result.params, fault_rng);
    result.fault = FaultKind::kCorrupted;
  }

  // Upload round trip under the configured scheme: what enters aggregation
  // (and server-side screening) is the decoded frame, so lossy compression
  // noise — and corrupted payloads — reach the server exactly as the wire
  // carries them. The error-feedback residual belongs to the client and is
  // touched by at most one job per batch; it was pinned in the state store
  // before the fan-out (null for lossless schemes, which never read it).
  if (residual == nullptr) residual = &wire.decoded;
  comm::EncodeUpload(config_.codec, result.params, wire.dispatched,
                     shape_table_, *residual, codec_rng, wire.frame);
  result.wire_bytes_up = wire.frame.size();
  util::Status uploaded = comm::DecodeUpload(wire.frame, wire.dispatched,
                                             shape_table_, wire.decoded);
  FC_CHECK(uploaded.ok()) << uploaded.ToString();
  result.params.swap(wire.decoded);
  // Engine provenance (client.Train never touches these; reset them so a
  // recycled result slot carries no stale values).
  result.staleness = 0;
  result.weight_scale = 1.0;
  result.slowdown = decision.duration;
  result.upload_corrupt = decision.corrupt;
}

void FlAlgorithm::WeightedAverageInto(
    const std::vector<const FlatParams*>& models,
    const std::vector<double>& weights, FlatParams& out) {
  FC_CHECK(!models.empty());
  FC_CHECK_EQ(models.size(), weights.size());
  double total_weight = 0.0;
  for (double w : weights) {
    FC_CHECK_GE(w, 0.0);
    total_weight += w;
  }
  FC_CHECK_GT(total_weight, 0.0);

  out.assign(models[0]->size(), 0.0f);  // capacity-retaining
  // Range-sharded accumulation: each contiguous coordinate range walks the
  // models in ascending order, exactly the element-wise order of the serial
  // loop (AxpyRange is the serial Axpy's inner loop), so the result is
  // bit-identical across --fl_threads.
  ParallelRanges(
      static_cast<std::int64_t>(out.size()), kMinAggRangeElems,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::size_t m = 0; m < models.size(); ++m) {
          float factor = static_cast<float>(weights[m] / total_weight);
          flat_ops::AxpyRange(out.data() + begin, factor,
                              models[m]->data() + begin,
                              static_cast<std::size_t>(end - begin));
        }
      });
}

void FlAlgorithm::AverageInto(const std::vector<const FlatParams*>& models,
                              FlatParams& out) {
  FC_CHECK(!models.empty());
  float factor = 1.0f / static_cast<float>(models.size());
  out.assign(models[0]->size(), 0.0f);
  ParallelRanges(
      static_cast<std::int64_t>(out.size()), kMinAggRangeElems,
      [&](std::int64_t begin, std::int64_t end) {
        for (const FlatParams* model : models) {
          flat_ops::AxpyRange(out.data() + begin, factor,
                              model->data() + begin,
                              static_cast<std::size_t>(end - begin));
        }
      });
}

void FlAlgorithm::Aggregate(const std::vector<const FlatParams*>& models,
                            const std::vector<double>& weights,
                            const FlatParams& reference, FlatParams& out) {
  PhaseScope phase(*this, RoundPhase::kAggregate);
  switch (config_.aggregator.kind) {
    case AggregatorKind::kWeightedMean:
      WeightedAverageInto(models, weights, out);
      return;
    case AggregatorKind::kTrimmedMean: {
      FC_TRACE_SPAN("agg.trimmed_mean");
      Metrics().robust_aggregations.Add(1);
      TrimmedMeanInto(models, config_.aggregator.trim_ratio, agg_column_, out);
      return;
    }
    case AggregatorKind::kCoordinateMedian: {
      FC_TRACE_SPAN("agg.coordinate_median");
      Metrics().robust_aggregations.Add(1);
      CoordinateMedianInto(models, agg_column_, out);
      return;
    }
    case AggregatorKind::kNormClippedMean: {
      FC_TRACE_SPAN("agg.norm_clipped_mean");
      Metrics().robust_aggregations.Add(1);
      NormClippedWeightedAverageInto(models, weights, reference,
                                     config_.aggregator.clip_norm,
                                     agg_scratch_, out);
      return;
    }
  }
  FC_CHECK(false) << "unreachable";
}

std::uint64_t FlAlgorithm::ConfigFingerprint() const {
  auto mix_float = [](std::uint64_t h, float value) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return MixSeed(h ^ bits);
  };
  std::uint64_t h = MixSeed(0x666370ULL);  // "fcp"
  for (char c : name_) h = MixSeed(h ^ static_cast<std::uint8_t>(c));
  h = MixSeed(h ^ config_.seed);
  h = MixSeed(h ^ static_cast<std::uint64_t>(config_.clients_per_round));
  h = MixSeed(h ^ static_cast<std::uint64_t>(num_clients()));
  h = MixSeed(h ^ static_cast<std::uint64_t>(model_size_));
  h = MixSeed(h ^ static_cast<std::uint64_t>(config_.train.local_epochs));
  h = MixSeed(h ^ static_cast<std::uint64_t>(config_.train.batch_size));
  h = mix_float(h, config_.train.lr);
  h = mix_float(h, config_.train.momentum);
  h = mix_float(h, config_.train.weight_decay);
  h = mix_float(h, config_.train.grad_clip_norm);
  h = MixSeed(h ^ static_cast<std::uint64_t>(config_.eval_batch_size));
  // Optional subsystems mix in only when enabled, so each default leaves
  // the fingerprint of the plain configuration unchanged. A codec changes
  // what the server aggregates.
  if (config_.codec.scheme != comm::Scheme::kIdentity) {
    h = MixSeed(h ^ (0x636f646563ULL +
                     static_cast<std::uint64_t>(config_.codec.scheme)));
    h = mix_float(h, static_cast<float>(config_.codec.topk_fraction));
  }
  // Only the async engine perturbs the fingerprint: it reshapes the
  // training trajectory itself, while the sync clock is observation-only
  // (virtual time rides in the checkpoint body).
  if (config_.async.mode == RoundMode::kAsync) {
    h = MixSeed(h ^ (0x6173796e63ULL +  // "async"
                     static_cast<std::uint64_t>(config_.async.buffer_size)));
    h = MixSeed(h ^ static_cast<std::uint64_t>(config_.async.staleness));
    h = mix_float(h, static_cast<float>(config_.async.staleness_exponent));
    h = mix_float(h, static_cast<float>(config_.async.dispatch_timeout));
    h = MixSeed(h ^ static_cast<std::uint64_t>(config_.async.max_retries));
    h = mix_float(h,
                  static_cast<float>(config_.async.clock.compute_speed_min));
    h = mix_float(h,
                  static_cast<float>(config_.async.clock.compute_speed_max));
    h = mix_float(h, static_cast<float>(config_.async.clock.bandwidth_min));
    h = mix_float(h, static_cast<float>(config_.async.clock.bandwidth_max));
    h = mix_float(h, static_cast<float>(config_.async.clock.jitter));
  }
  // Enabled DP / masking: resuming under other privacy settings would
  // mis-account the spent budget.
  if (config_.dp.Enabled()) {
    h = MixSeed(h ^ 0x70726976616379ULL);  // "privacy"
    h = mix_float(h, config_.dp.clip_norm);
    h = mix_float(h, config_.dp.noise_multiplier);
    h = mix_float(h, static_cast<float>(config_.dp.delta));
  }
  if (config_.secure_agg.Enabled()) {
    h = MixSeed(h ^ (0x7061697273656564ULL +  // "pairseed"
                     static_cast<std::uint64_t>(
                         config_.secure_agg.fixed_point_bits)));
  }
  // bf16 replica arenas change the training trajectory (activations round
  // on every arena store), so the flag perturbs the fingerprint; exec mode
  // itself stays out of it, fp32 plan == layers bit-for-bit.
  if (config_.train.plan_bf16) {
    h = MixSeed(h ^ 0x62663136ULL);  // "bf16"
  }
  return h;
}

std::vector<FaultKind> FlAlgorithm::inflight_faults() const {
  std::vector<FaultKind> faults;
  for (const PendingUpload& pending : inflight_) {
    faults.push_back(pending.result.fault);
  }
  return faults;
}

double FlAlgorithm::TakeRoundClientLoss() {
  double mean =
      round_loss_count_ > 0 ? round_loss_sum_ / round_loss_count_ : 0.0;
  round_loss_sum_ = 0.0;
  round_loss_count_ = 0;
  return mean;
}

}  // namespace fedcross::fl
