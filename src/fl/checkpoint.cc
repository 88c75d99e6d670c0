#include "fl/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>

#include "comm/wire.h"
#include "fl/algorithm.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fedcross::fl {
namespace {

constexpr std::uint32_t kMagic = 0x46435253;  // "FCRS"
constexpr std::size_t kHeaderBytes = 2 * sizeof(std::uint32_t);
constexpr std::size_t kTrailerBytes = sizeof(std::uint32_t);

// Length prefixes are validated against the remaining buffer before any
// allocation, so a corrupted count cannot trigger a huge resize.
constexpr std::uint64_t kMaxReasonableCount = 1ULL << 40;

// Checkpoint timing histograms. FlAlgorithm's round metrics register the
// same names up front, so every snapshot lists them even before a save.
struct CheckpointMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Histogram& save_ms = reg.GetHistogram("fl.checkpoint.save_ms");
  obs::Histogram& load_ms = reg.GetHistogram("fl.checkpoint.load_ms");
};

CheckpointMetrics& Metrics() {
  static CheckpointMetrics* metrics = new CheckpointMetrics();
  return *metrics;
}

util::Status IoError(const std::string& what, const std::string& path) {
  return util::Status::Internal(what + " " + path + ": " +
                                std::strerror(errno));
}

// write(2) until every byte is out; false (errno set) on failure.
bool WriteAll(int fd, const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (size > 0) {
    ssize_t n = ::write(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      if (n == 0) errno = EIO;
      return false;
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

// A rename is durable only once the directory entry naming it is.
util::Status SyncParentDirectory(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return IoError("cannot open directory", dir);
  util::Status status = ::fsync(fd) == 0
                            ? util::Status::Ok()
                            : IoError("cannot fsync directory", dir);
  ::close(fd);
  return status;
}

}  // namespace

void StateWriter::WriteU32(std::uint32_t value) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
  bytes_.insert(bytes_.end(), p, p + sizeof(value));
}

void StateWriter::WriteU64(std::uint64_t value) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
  bytes_.insert(bytes_.end(), p, p + sizeof(value));
}

void StateWriter::WriteI64(std::int64_t value) {
  WriteU64(static_cast<std::uint64_t>(value));
}

void StateWriter::WriteF32(float value) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  WriteU32(bits);
}

void StateWriter::WriteF64(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  WriteU64(bits);
}

void StateWriter::WriteBool(bool value) {
  bytes_.push_back(value ? 1 : 0);
}

void StateWriter::WriteFloats(const FlatParams& values) {
  WriteU64(values.size());
  const auto* p = reinterpret_cast<const std::uint8_t*>(values.data());
  bytes_.insert(bytes_.end(), p, p + values.size() * sizeof(float));
}

void StateWriter::WriteInts(const std::vector<int>& values) {
  WriteU64(values.size());
  for (int v : values) WriteU32(static_cast<std::uint32_t>(v));
}

void StateWriter::WriteInts64(const std::vector<std::int64_t>& values) {
  WriteU64(values.size());
  for (std::int64_t v : values) WriteI64(v);
}

void StateWriter::WriteDoubles(const std::vector<double>& values) {
  WriteU64(values.size());
  for (double v : values) WriteF64(v);
}

util::Status StateReader::ReadRaw(void* dst, std::size_t count) {
  // An empty vector reads into a null data() pointer, and memcpy with a
  // null argument is undefined even for zero bytes.
  if (count == 0) return util::Status::Ok();
  if (offset_ + count > bytes_.size()) {
    return util::Status::InvalidArgument(
        "truncated checkpoint: need " + std::to_string(count) +
        " bytes at offset " + std::to_string(offset_) + ", have " +
        std::to_string(bytes_.size() - offset_));
  }
  std::memcpy(dst, bytes_.data() + offset_, count);
  offset_ += count;
  return util::Status::Ok();
}

util::Status StateReader::ReadU32(std::uint32_t& value) {
  return ReadRaw(&value, sizeof(value));
}

util::Status StateReader::ReadU64(std::uint64_t& value) {
  return ReadRaw(&value, sizeof(value));
}

util::Status StateReader::ReadI64(std::int64_t& value) {
  std::uint64_t bits = 0;
  FC_RETURN_IF_ERROR(ReadU64(bits));
  value = static_cast<std::int64_t>(bits);
  return util::Status::Ok();
}

util::Status StateReader::ReadF32(float& value) {
  std::uint32_t bits = 0;
  FC_RETURN_IF_ERROR(ReadU32(bits));
  std::memcpy(&value, &bits, sizeof(value));
  return util::Status::Ok();
}

util::Status StateReader::ReadF64(double& value) {
  std::uint64_t bits = 0;
  FC_RETURN_IF_ERROR(ReadU64(bits));
  std::memcpy(&value, &bits, sizeof(value));
  return util::Status::Ok();
}

util::Status StateReader::ReadBool(bool& value) {
  std::uint8_t byte = 0;
  FC_RETURN_IF_ERROR(ReadRaw(&byte, 1));
  value = byte != 0;
  return util::Status::Ok();
}

util::Status StateReader::ReadFloats(FlatParams& values) {
  std::uint64_t count = 0;
  FC_RETURN_IF_ERROR(ReadU64(count));
  if (count > kMaxReasonableCount ||
      offset_ + count * sizeof(float) > bytes_.size()) {
    return util::Status::InvalidArgument(
        "truncated checkpoint: float vector of " + std::to_string(count) +
        " elements exceeds remaining bytes");
  }
  values.resize(static_cast<std::size_t>(count));
  return ReadRaw(values.data(), values.size() * sizeof(float));
}

util::Status StateReader::ReadInts(std::vector<int>& values) {
  std::uint64_t count = 0;
  FC_RETURN_IF_ERROR(ReadU64(count));
  if (count > kMaxReasonableCount ||
      offset_ + count * sizeof(std::uint32_t) > bytes_.size()) {
    return util::Status::InvalidArgument(
        "truncated checkpoint: int vector of " + std::to_string(count) +
        " elements exceeds remaining bytes");
  }
  values.resize(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::uint32_t v = 0;
    FC_RETURN_IF_ERROR(ReadU32(v));
    values[i] = static_cast<int>(v);
  }
  return util::Status::Ok();
}

util::Status StateReader::ReadInts64(std::vector<std::int64_t>& values) {
  std::uint64_t count = 0;
  FC_RETURN_IF_ERROR(ReadU64(count));
  if (count > kMaxReasonableCount ||
      offset_ + count * sizeof(std::uint64_t) > bytes_.size()) {
    return util::Status::InvalidArgument(
        "truncated checkpoint: int64 vector of " + std::to_string(count) +
        " elements exceeds remaining bytes");
  }
  values.resize(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < values.size(); ++i) {
    FC_RETURN_IF_ERROR(ReadI64(values[i]));
  }
  return util::Status::Ok();
}

util::Status StateReader::ReadDoubles(std::vector<double>& values) {
  std::uint64_t count = 0;
  FC_RETURN_IF_ERROR(ReadU64(count));
  if (count > kMaxReasonableCount ||
      offset_ + count * sizeof(double) > bytes_.size()) {
    return util::Status::InvalidArgument(
        "truncated checkpoint: double vector of " + std::to_string(count) +
        " elements exceeds remaining bytes");
  }
  values.resize(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < values.size(); ++i) {
    FC_RETURN_IF_ERROR(ReadF64(values[i]));
  }
  return util::Status::Ok();
}

util::Status WriteStateFile(const std::string& path,
                            const StateWriter& writer) {
  const std::uint32_t header[2] = {kMagic, kCheckpointVersion};
  const std::vector<std::uint8_t>& body = writer.bytes();
  const std::uint32_t crc = comm::Crc32(
      body, comm::Crc32({reinterpret_cast<const std::uint8_t*>(header),
                         kHeaderBytes}));

  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return IoError("cannot open", tmp);
  util::Status status = util::Status::Ok();
  if (!WriteAll(fd, header, kHeaderBytes) ||
      !WriteAll(fd, body.data(), body.size()) ||
      !WriteAll(fd, &crc, kTrailerBytes)) {
    status = IoError("cannot write", tmp);
  } else if (::fsync(fd) != 0) {
    status = IoError("cannot fsync", tmp);
  }
  if (::close(fd) != 0 && status.ok()) status = IoError("cannot close", tmp);
  // Atomic publish: the previous checkpoint stays intact until the new one
  // is fully on disk.
  if (status.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    status = IoError("cannot rename " + tmp + " to", path);
  }
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  return SyncParentDirectory(path);
}

util::StatusOr<StateReader> ReadStateFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.good()) return util::Status::NotFound("cannot open " + path);
  std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in.good()) return util::Status::Internal("short read from " + path);

  if (bytes.size() < kHeaderBytes) {
    return util::Status::InvalidArgument("truncated checkpoint header");
  }
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  std::memcpy(&version, bytes.data() + sizeof(magic), sizeof(version));
  if (magic != kMagic) {
    return util::Status::InvalidArgument("not a FedCross training checkpoint");
  }
  if (version != kCheckpointVersion) {
    return util::Status::InvalidArgument(
        "unsupported training checkpoint version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kCheckpointVersion) +
        ")");
  }
  if (bytes.size() < kHeaderBytes + kTrailerBytes) {
    return util::Status::InvalidArgument("truncated checkpoint: no CRC");
  }
  const std::size_t payload = bytes.size() - kTrailerBytes;
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + payload, sizeof(stored_crc));
  if (comm::Crc32({bytes.data(), payload}) != stored_crc) {
    return util::Status::InvalidArgument(
        "checkpoint CRC mismatch: the file is corrupt or truncated");
  }
  bytes.resize(payload);
  bytes.erase(bytes.begin(), bytes.begin() + kHeaderBytes);
  return StateReader(std::move(bytes));
}

util::Status FlAlgorithm::SaveCheckpoint(const std::string& path) {
  FC_TRACE_SPAN("checkpoint.save");
  const std::int64_t start_us =
      obs::MetricsEnabled() ? obs::TraceNowMicros() : 0;
  StateWriter writer;
  writer.WriteU64(ConfigFingerprint());
  writer.WriteI64(completed_rounds_);

  util::Rng::State rng_state = rng_.GetState();
  for (std::uint64_t word : rng_state.words) writer.WriteU64(word);
  writer.WriteBool(rng_state.has_cached_normal);
  writer.WriteF64(rng_state.cached_normal);

  writer.WriteU64(comm_.total_download_bytes());
  writer.WriteU64(comm_.total_upload_bytes());
  writer.WriteU64(comm_.total_wire_download_bytes());
  writer.WriteU64(comm_.total_wire_upload_bytes());
  writer.WriteU64(comm_.total_wasted_bytes());
  writer.WriteU64(comm_.total_wire_wasted_bytes());

  writer.WriteI64(fault_stats_.dropouts);
  writer.WriteI64(fault_stats_.stragglers);
  writer.WriteI64(fault_stats_.corrupted);
  writer.WriteI64(fault_stats_.rejected);
  writer.WriteI64(fault_stats_.timeouts);
  writer.WriteI64(fault_stats_.retries);

  const std::vector<RoundRecord>& records = history_.records();
  writer.WriteU64(records.size());
  for (const RoundRecord& record : records) {
    writer.WriteI64(record.round);
    writer.WriteF32(record.test_loss);
    writer.WriteF32(record.test_accuracy);
    writer.WriteF64(record.bytes_up);
    writer.WriteF64(record.bytes_down);
    writer.WriteF64(record.mean_client_loss);
  }

  // Error-feedback residuals: without them a resumed lossy-codec run would
  // re-quantise against zeroed residuals and diverge from the uninterrupted
  // run. A sparse id-keyed table covering only clients that ever held a
  // residual (spilled entries are read back through the store, so
  // residency is invisible).
  std::vector<std::int64_t> ids = residual_store_.TouchedIds();
  writer.WriteU64(ids.size());
  for (std::int64_t id : ids) {
    writer.WriteI64(id);
    FC_CHECK(residual_store_.Read(id, state_scratch_));
    writer.WriteFloats(state_scratch_);
  }

  // Event-engine state: the virtual clock, the version/dispatch counters,
  // and the in-flight heap serialised in array order (so a resumed run pops
  // bit-identically). A failed event is never aggregated, so its params
  // are not stored.
  const FlatParams no_params;
  writer.WriteF64(virtual_now_);
  writer.WriteI64(model_version_);
  writer.WriteI64(dispatch_seq_);
  writer.WriteU64(inflight_.size());
  for (const PendingUpload& pending : inflight_) {
    writer.WriteF64(pending.arrival);
    writer.WriteI64(pending.seq);
    const LocalTrainResult& r = pending.result;
    writer.WriteFloats(r.dropped ? no_params : r.params);
    writer.WriteI64(r.num_samples);
    writer.WriteI64(r.num_steps);
    writer.WriteF32(r.lr);
    writer.WriteF64(r.mean_loss);
    writer.WriteU64(r.wire_bytes_down);
    writer.WriteU64(r.wire_bytes_up);
    writer.WriteBool(r.dropped);
    writer.WriteU32(static_cast<std::uint32_t>(r.fault));
    writer.WriteI64(r.client_id);
    writer.WriteI64(static_cast<std::int64_t>(r.slot));
    writer.WriteI64(r.dispatch_version);
    writer.WriteF64(r.slowdown);
    writer.WriteBool(r.upload_corrupt);
    writer.WriteBool(r.dp_clipped);
  }

  // Privacy state: the RDP accountant's per-order totals (exact f64 bits,
  // so the restored epsilon is bit-identical) and the privacy counters.
  writer.WriteI64(accountant_.rounds());
  writer.WriteDoubles(accountant_.order_totals());
  writer.WriteI64(privacy_stats_.clipped);
  writer.WriteI64(privacy_stats_.mask_pairs);
  writer.WriteI64(privacy_stats_.mask_recoveries);

  SaveExtraState(writer);
  util::Status status = WriteStateFile(path, writer);
  if (obs::MetricsEnabled()) {
    Metrics().save_ms.Observe(
        static_cast<double>(obs::TraceNowMicros() - start_us) / 1000.0);
  }
  return status;
}

util::Status FlAlgorithm::LoadCheckpoint(const std::string& path) {
  FC_TRACE_SPAN("checkpoint.load");
  const std::int64_t start_us =
      obs::MetricsEnabled() ? obs::TraceNowMicros() : 0;
  util::StatusOr<StateReader> reader_or = ReadStateFile(path);
  if (!reader_or.ok()) return reader_or.status();
  StateReader reader = std::move(reader_or).value();

  std::uint64_t fingerprint = 0;
  FC_RETURN_IF_ERROR(reader.ReadU64(fingerprint));
  if (fingerprint != ConfigFingerprint()) {
    return util::Status::FailedPrecondition(
        "checkpoint was written by a different run configuration (algorithm, "
        "seed, client count, model, or training options differ)");
  }

  std::int64_t completed = 0;
  FC_RETURN_IF_ERROR(reader.ReadI64(completed));
  if (completed < 0) {
    return util::Status::InvalidArgument("negative completed-round counter");
  }

  util::Rng::State rng_state;
  for (std::uint64_t& word : rng_state.words) {
    FC_RETURN_IF_ERROR(reader.ReadU64(word));
  }
  FC_RETURN_IF_ERROR(reader.ReadBool(rng_state.has_cached_normal));
  FC_RETURN_IF_ERROR(reader.ReadF64(rng_state.cached_normal));

  std::uint64_t total_down = 0;
  std::uint64_t total_up = 0;
  std::uint64_t total_wire_down = 0;
  std::uint64_t total_wire_up = 0;
  std::uint64_t total_wasted = 0;
  std::uint64_t total_wire_wasted = 0;
  FC_RETURN_IF_ERROR(reader.ReadU64(total_down));
  FC_RETURN_IF_ERROR(reader.ReadU64(total_up));
  FC_RETURN_IF_ERROR(reader.ReadU64(total_wire_down));
  FC_RETURN_IF_ERROR(reader.ReadU64(total_wire_up));
  FC_RETURN_IF_ERROR(reader.ReadU64(total_wasted));
  FC_RETURN_IF_ERROR(reader.ReadU64(total_wire_wasted));

  FaultStats stats;
  FC_RETURN_IF_ERROR(reader.ReadI64(stats.dropouts));
  FC_RETURN_IF_ERROR(reader.ReadI64(stats.stragglers));
  FC_RETURN_IF_ERROR(reader.ReadI64(stats.corrupted));
  FC_RETURN_IF_ERROR(reader.ReadI64(stats.rejected));
  FC_RETURN_IF_ERROR(reader.ReadI64(stats.timeouts));
  FC_RETURN_IF_ERROR(reader.ReadI64(stats.retries));

  std::uint64_t record_count = 0;
  FC_RETURN_IF_ERROR(reader.ReadU64(record_count));
  MetricsHistory restored;
  for (std::uint64_t i = 0; i < record_count; ++i) {
    RoundRecord record;
    std::int64_t round = 0;
    FC_RETURN_IF_ERROR(reader.ReadI64(round));
    record.round = static_cast<int>(round);
    FC_RETURN_IF_ERROR(reader.ReadF32(record.test_loss));
    FC_RETURN_IF_ERROR(reader.ReadF32(record.test_accuracy));
    FC_RETURN_IF_ERROR(reader.ReadF64(record.bytes_up));
    FC_RETURN_IF_ERROR(reader.ReadF64(record.bytes_down));
    FC_RETURN_IF_ERROR(reader.ReadF64(record.mean_client_loss));
    restored.Add(record);
  }

  // Residual table (id-keyed, ascending), staged into (id, residual) pairs
  // and committed to the store only after every read succeeds.
  std::vector<std::pair<std::int64_t, FlatParams>> residuals;
  std::uint64_t residual_count = 0;
  FC_RETURN_IF_ERROR(reader.ReadU64(residual_count));
  std::int64_t prev_id = -1;
  for (std::uint64_t i = 0; i < residual_count; ++i) {
    std::int64_t id = 0;
    FC_RETURN_IF_ERROR(reader.ReadI64(id));
    if (id <= prev_id || id >= num_clients()) {
      return util::Status::InvalidArgument(
          "checkpoint residual table ids must be ascending and in range");
    }
    prev_id = id;
    FlatParams residual;
    FC_RETURN_IF_ERROR(reader.ReadFloats(residual));
    if (!residual.empty() &&
        residual.size() != static_cast<std::size_t>(model_size_)) {
      return util::Status::InvalidArgument(
          "checkpoint residual does not match the model size");
    }
    residuals.emplace_back(id, std::move(residual));
  }

  double virtual_now = 0.0;
  std::int64_t model_version = 0;
  std::int64_t dispatch_seq = 0;
  std::uint64_t inflight_count = 0;
  FC_RETURN_IF_ERROR(reader.ReadF64(virtual_now));
  FC_RETURN_IF_ERROR(reader.ReadI64(model_version));
  FC_RETURN_IF_ERROR(reader.ReadI64(dispatch_seq));
  FC_RETURN_IF_ERROR(reader.ReadU64(inflight_count));
  std::vector<PendingUpload> inflight;
  for (std::uint64_t i = 0; i < inflight_count; ++i) {
    PendingUpload pending;
    FC_RETURN_IF_ERROR(reader.ReadF64(pending.arrival));
    FC_RETURN_IF_ERROR(reader.ReadI64(pending.seq));
    LocalTrainResult& r = pending.result;
    FC_RETURN_IF_ERROR(reader.ReadFloats(r.params));
    std::int64_t num_samples = 0;
    std::int64_t num_steps = 0;
    FC_RETURN_IF_ERROR(reader.ReadI64(num_samples));
    FC_RETURN_IF_ERROR(reader.ReadI64(num_steps));
    r.num_samples = static_cast<int>(num_samples);
    r.num_steps = static_cast<int>(num_steps);
    FC_RETURN_IF_ERROR(reader.ReadF32(r.lr));
    FC_RETURN_IF_ERROR(reader.ReadF64(r.mean_loss));
    FC_RETURN_IF_ERROR(reader.ReadU64(r.wire_bytes_down));
    FC_RETURN_IF_ERROR(reader.ReadU64(r.wire_bytes_up));
    FC_RETURN_IF_ERROR(reader.ReadBool(r.dropped));
    const std::size_t want_params =
        r.dropped ? 0 : static_cast<std::size_t>(model_size_);
    if (r.params.size() != want_params) {
      return util::Status::InvalidArgument(
          "checkpoint in-flight params must match the model size for an "
          "upload and be empty for a failed event");
    }
    std::uint32_t fault = 0;
    FC_RETURN_IF_ERROR(reader.ReadU32(fault));
    if (fault > static_cast<std::uint32_t>(FaultKind::kRejected)) {
      return util::Status::InvalidArgument(
          "checkpoint in-flight fault kind out of range");
    }
    r.fault = static_cast<FaultKind>(fault);
    FC_RETURN_IF_ERROR(reader.ReadI64(r.client_id));
    std::int64_t slot = 0;
    FC_RETURN_IF_ERROR(reader.ReadI64(slot));
    r.slot = static_cast<int>(slot);
    FC_RETURN_IF_ERROR(reader.ReadI64(r.dispatch_version));
    FC_RETURN_IF_ERROR(reader.ReadF64(r.slowdown));
    FC_RETURN_IF_ERROR(reader.ReadBool(r.upload_corrupt));
    FC_RETURN_IF_ERROR(reader.ReadBool(r.dp_clipped));
    inflight.push_back(std::move(pending));
  }

  std::int64_t accountant_rounds = 0;
  std::vector<double> order_totals;
  PrivacyStats privacy_stats;
  FC_RETURN_IF_ERROR(reader.ReadI64(accountant_rounds));
  FC_RETURN_IF_ERROR(reader.ReadDoubles(order_totals));
  if (accountant_rounds < 0) {
    return util::Status::InvalidArgument(
        "negative checkpoint accountant round counter");
  }
  if (order_totals.size() != privacy::RdpAccountant::Orders().size()) {
    return util::Status::InvalidArgument(
        "checkpoint accountant order grid does not match this build");
  }
  FC_RETURN_IF_ERROR(reader.ReadI64(privacy_stats.clipped));
  FC_RETURN_IF_ERROR(reader.ReadI64(privacy_stats.mask_pairs));
  FC_RETURN_IF_ERROR(reader.ReadI64(privacy_stats.mask_recoveries));

  FC_RETURN_IF_ERROR(LoadExtraState(reader));
  if (!reader.AtEnd()) {
    return util::Status::InvalidArgument("trailing bytes in checkpoint");
  }

  // Commit the base state only after every read (including the subclass
  // state) succeeded.
  completed_rounds_ = static_cast<int>(completed);
  rng_.SetState(rng_state);
  comm_.Restore(total_down, total_up, total_wire_down, total_wire_up,
                total_wasted, total_wire_wasted);
  fault_stats_ = stats;
  privacy_stats_ = privacy_stats;
  accountant_.Restore(order_totals, accountant_rounds);
  history_ = std::move(restored);
  virtual_now_ = virtual_now;
  model_version_ = model_version;
  dispatch_seq_ = dispatch_seq;
  inflight_ = std::move(inflight);
  residual_store_.Clear();
  for (auto& [id, residual] : residuals) {
    residual_store_.Touch(id) = std::move(residual);
  }
  if (obs::MetricsEnabled()) {
    Metrics().load_ms.Observe(
        static_cast<double>(obs::TraceNowMicros() - start_us) / 1000.0);
  }
  return util::Status::Ok();
}

}  // namespace fedcross::fl
