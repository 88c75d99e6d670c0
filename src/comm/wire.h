#ifndef FEDCROSS_COMM_WIRE_H_
#define FEDCROSS_COMM_WIRE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/status.h"

// Wire codec for the FL communication path. Every dispatch (server ->
// client) and upload (client -> server) in the simulator round-trips
// through the framed payload format defined here, so the CommTracker
// counts *encoded* bytes measured from real frames instead of the
// float-count estimates the paper's Table I analysis used to rely on.
//
// Frame layout (little-endian):
//
//   u32   magic "FCWP"
//   u8    format version (1)
//   u8    scheme (Scheme enum)
//   u16   reserved (0)
//   u32   tensor count T          -- the shape table: the payload is the
//   u32 x T  per-tensor lengths      flat concatenation of T tensors
//   u64   param count (== sum of lengths)
//   u64   body length in bytes
//   ...   scheme-specific body
//   u32   CRC-32 (IEEE) of every preceding byte
//
// Scheme bodies:
//   kIdentity  raw float32 payload (4 bytes per param)
//   kDelta     per-param zigzag varint of the wrapping int32 difference
//              between the payload's and the reference's float bit
//              patterns -- exactly invertible, so the codec is lossless
//   kInt8      per-tensor float32 scale followed by one stochastically
//              rounded int8 per param (update + error-feedback residual)
//   kTopK      u64 k, an index bitmap (1 bit per param), then the k
//              surviving float32 update values in index order
//   kInt8TopK  u64 k, index bitmap, one global float32 scale, then k
//              stochastically rounded int8 values
//
// Dispatches always use the kIdentity body (the broadcast must be exact:
// FedCross's cross-aggregation assumes the server and the device hold the
// same bytes), so
// the compression schemes apply to the uplink -- the direction the sparse/
// quantized FL literature (QSGD, DGC, top-k EF-SGD) targets. Lossy uplink
// schemes encode the *update* (trained - dispatched) plus the client's
// error-feedback residual; the part the quantizer dropped goes back into
// the residual so compression noise is compensated across rounds instead
// of accumulating.
//
// Determinism: encoding is a pure function of (payload, reference,
// residual, rng); the stochastic rounding draws come from a caller-seeded
// per-(round, client) Rng, so results are bit-identical for every
// --fl_threads value and across encode orderings.
namespace fedcross::comm {

// Uplink encoding schemes, in wire-format order. Values are stored in
// frames; do not renumber.
enum class Scheme : std::uint8_t {
  kIdentity = 0,  // framed raw floats; bit-identical to uncoded training
  kDelta = 1,     // lossless bit-plane delta vs the dispatched model
  kInt8 = 2,      // 8-bit stochastic uniform quantization + error feedback
  kTopK = 3,      // top-k magnitude sparsification + error feedback
  kInt8TopK = 4,  // top-k selection, then int8 quantization of survivors
};

const char* SchemeName(Scheme scheme);

// Parses "identity" | "delta" | "int8" | "topk" | "int8_topk".
util::StatusOr<Scheme> ParseScheme(const std::string& name);

// True for the schemes whose decode is not bit-exact (kInt8 and the top-k
// family); these maintain per-client error-feedback residuals.
bool SchemeIsLossy(Scheme scheme);

// Per-algorithm codec configuration (AlgorithmConfig::codec).
struct CodecOptions {
  Scheme scheme = Scheme::kIdentity;
  // Fraction of coordinates the top-k schemes keep (k = max(1,
  // round(fraction * params))).
  double topk_fraction = 0.10;
};

// Per-tensor element counts of the flattened payload, captured once from
// the model factory. Every frame carries it, and decode validates it, so a
// frame can never be applied to a model with a different layout.
using ShapeTable = std::vector<std::uint32_t>;

// --- Dispatch path (server -> client) --------------------------------------

// Frames `params` as a kIdentity payload into `frame` (cleared first;
// capacity is reused across calls).
void EncodeDispatch(std::span<const float> params, const ShapeTable& shapes,
                    std::vector<std::uint8_t>& frame);

// Validates and unpacks a dispatch frame into `out` (resized; capacity
// reused). Returns InvalidArgument on truncation, CRC mismatch, a foreign
// magic/version, a non-identity scheme, or an inconsistent shape table.
util::Status DecodeDispatch(std::span<const std::uint8_t> frame,
                            const ShapeTable& shapes, std::vector<float>& out);

// The exact frame size EncodeDispatch produces for `params` elements --
// what a dropped client still costs in downlink bytes.
std::uint64_t DispatchWireBytes(std::uint64_t params, const ShapeTable& shapes);

// --- Upload path (client -> server) ----------------------------------------

// Encodes `trained` against the dispatched `reference` under
// `options.scheme`. `residual` is this client's error-feedback buffer: the
// lossy schemes add it to the update before quantizing and store the
// uncaptured remainder back; lossless schemes leave it untouched. An empty
// residual means zeros and is sized on first use. `rng` drives the
// stochastic rounding of the int8 schemes and must be seeded per
// (round, client) for thread-count-invariant results.
//
// Non-finite updates (NaN/Inf corrupted uploads) are framed so they decode
// to non-finite values -- upload screening stays effective through the
// codec -- and skip the residual update so one corrupted round cannot
// poison the client's error-feedback state.
void EncodeUpload(const CodecOptions& options, std::span<const float> trained,
                  std::span<const float> reference, const ShapeTable& shapes,
                  std::vector<float>& residual, util::Rng& rng,
                  std::vector<std::uint8_t>& frame);

// Validates an upload frame and reconstructs the uploaded model into `out`
// (resized; capacity reused; `out` may alias neither `frame` nor
// `reference`). The frame's scheme byte selects the decoder. Returns
// InvalidArgument on any malformed, truncated, or CRC-corrupt frame.
util::Status DecodeUpload(std::span<const std::uint8_t> frame,
                          std::span<const float> reference,
                          const ShapeTable& shapes, std::vector<float>& out);

// --- Helpers shared with tests ---------------------------------------------

// IEEE CRC-32 (the zlib polynomial) of `bytes`. Passing the CRC of a
// preceding buffer as `prior` continues it: Crc32(b, Crc32(a)) is the CRC
// of a followed by b.
std::uint32_t Crc32(std::span<const std::uint8_t> bytes,
                    std::uint32_t prior = 0);

// The k the top-k schemes keep for `params` coordinates at `fraction`.
std::uint64_t TopKCount(std::uint64_t params, double fraction);

}  // namespace fedcross::comm

#endif  // FEDCROSS_COMM_WIRE_H_
