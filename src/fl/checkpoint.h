#ifndef FEDCROSS_FL_CHECKPOINT_H_
#define FEDCROSS_FL_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fl/types.h"
#include "util/status.h"

namespace fedcross::fl {

// FCRS: the binary training-state checkpoint (crash-safe resume).
//
// A checkpoint stores everything a killed run needs to resume
// bit-identically: the config fingerprint, the completed-round counter, the
// run RNG state, communication and fault totals, the metrics history, the
// per-client cold state (codec error-feedback residuals as a sparse
// id-keyed table), the async event engine (virtual clock, version and
// dispatch counters, the in-flight dispatch table in heap array order), the
// privacy ledger, and each algorithm's model state (global params, SCAFFOLD
// variates, FedCross middleware, ...). FlAlgorithm::SaveCheckpoint /
// LoadCheckpoint (defined in checkpoint.cc) drive these primitives;
// algorithm subclasses append their state through the SaveExtraState /
// LoadExtraState hooks.
//
// There is one format, version 6:
//
//   u32 magic "FCRS" | u32 version (6) | body | u32 CRC-32(magic..body)
//
// All integers are little-endian. The CRC (comm::Crc32, the zlib
// polynomial) covers header and body, so every single-bit flip and every
// truncation is rejected before any byte of the body is parsed. Any other
// version is rejected. An in-flight event that will never be aggregated
// (dropped, timed out, or screened away) stores an empty params vector.
//
// WriteStateFile writes `path + ".tmp"`, fsyncs and closes it, renames it
// over `path`, and fsyncs the parent directory: a crash at any point
// leaves either the previous checkpoint or the new one, both complete. All
// reads are bounds-checked and return util::Status on malformed input.

inline constexpr std::uint32_t kCheckpointVersion = 6;

// Appends little-endian POD values to a byte buffer.
class StateWriter {
 public:
  void WriteU32(std::uint32_t value);
  void WriteU64(std::uint64_t value);
  void WriteI64(std::int64_t value);
  void WriteF32(float value);
  void WriteF64(double value);
  void WriteBool(bool value);
  // Length-prefixed vectors (u64 count + raw elements).
  void WriteFloats(const FlatParams& values);
  void WriteInts(const std::vector<int>& values);
  void WriteInts64(const std::vector<std::int64_t>& values);
  void WriteDoubles(const std::vector<double>& values);

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
};

// Bounds-checked reader over a checkpoint body. Every read returns
// InvalidArgument("truncated checkpoint ...") when the buffer runs out.
class StateReader {
 public:
  StateReader() = default;
  explicit StateReader(std::vector<std::uint8_t> bytes)
      : bytes_(std::move(bytes)) {}

  util::Status ReadU32(std::uint32_t& value);
  util::Status ReadU64(std::uint64_t& value);
  util::Status ReadI64(std::int64_t& value);
  util::Status ReadF32(float& value);
  util::Status ReadF64(double& value);
  util::Status ReadBool(bool& value);
  util::Status ReadFloats(FlatParams& values);
  util::Status ReadInts(std::vector<int>& values);
  util::Status ReadInts64(std::vector<std::int64_t>& values);
  util::Status ReadDoubles(std::vector<double>& values);

  bool AtEnd() const { return offset_ == bytes_.size(); }

 private:
  util::Status ReadRaw(void* dst, std::size_t count);

  std::vector<std::uint8_t> bytes_;
  std::size_t offset_ = 0;
};

// Durably writes header + body + CRC trailer to `path` (fsync'd tmp file,
// rename, fsync'd directory). Internal on any I/O failure; the tmp file is
// removed and the previous checkpoint at `path` is left as it was.
util::Status WriteStateFile(const std::string& path, const StateWriter& writer);

// Reads `path` and validates magic, version and CRC. NotFound if the file
// cannot be opened, InvalidArgument if it is not an intact v6 checkpoint;
// otherwise a reader positioned at the body.
util::StatusOr<StateReader> ReadStateFile(const std::string& path);

}  // namespace fedcross::fl

#endif  // FEDCROSS_FL_CHECKPOINT_H_
