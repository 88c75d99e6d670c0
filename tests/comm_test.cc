// Wire-codec unit tests (comm/wire.h): frame round-trips for every scheme
// over every model-zoo architecture, the lossless guarantee of the delta
// codec on arbitrary bit patterns, the bounded-error + error-feedback
// contract of the quantized schemes, deterministic top-k tie-breaking, and
// rejection of malformed / truncated / CRC-corrupt frames.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "comm/wire.h"
#include "models/model_zoo.h"
#include "nn/sequential.h"
#include "test_util.h"
#include "util/rng.h"

namespace fedcross::comm {
namespace {

using Frame = std::vector<std::uint8_t>;

// Flattens a model the same way the FL layer does: parameters in
// Params() order, shape table alongside.
void FlattenModel(nn::Sequential& model, std::vector<float>& flat,
                  ShapeTable& shapes) {
  flat.clear();
  shapes.clear();
  for (const nn::Param* param : model.Params()) {
    auto numel = static_cast<std::size_t>(param->value.numel());
    shapes.push_back(static_cast<std::uint32_t>(numel));
    const float* data = param->value.data();
    flat.insert(flat.end(), data, data + numel);
  }
}

// A small instance of every paper architecture; the codec must be agnostic
// to the tensor layout, so each family exercises a different shape table.
std::vector<models::ModelFactory> ZooFactories() {
  std::vector<models::ModelFactory> factories;
  models::CnnConfig cnn;
  cnn.height = cnn.width = 8;
  cnn.conv1_channels = 4;
  cnn.conv2_channels = 8;
  cnn.fc_dim = 16;
  factories.push_back(models::MakeCnn(cnn));
  models::ResNetConfig resnet;
  resnet.height = resnet.width = 8;
  resnet.base_width = 4;
  resnet.gn_groups = 2;
  factories.push_back(models::MakeResNet(resnet));
  models::VggConfig vgg;
  vgg.height = vgg.width = 8;
  vgg.base_width = 4;
  vgg.fc_dim = 16;
  factories.push_back(models::MakeVgg(vgg));
  models::LstmConfig lstm;
  lstm.vocab_size = 12;
  lstm.embed_dim = 6;
  lstm.hidden_dim = 8;
  lstm.num_classes = 12;
  factories.push_back(models::MakeLstm(lstm));
  return factories;
}

std::vector<float> Perturbed(const std::vector<float>& reference,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> out = reference;
  for (float& v : out) v += static_cast<float>(rng.Normal(0.0, 0.02));
  return out;
}

using testing::ExpectParamsBitEqual;

// Rewrites the trailing CRC so body/header mutations exercise the decoder's
// structural checks instead of tripping the CRC gate first.
void FixCrc(Frame& frame) {
  std::uint32_t crc = Crc32({frame.data(), frame.size() - 4});
  std::memcpy(frame.data() + frame.size() - 4, &crc, 4);
}

// Offset of the u64 body-length field: fixed header + the shape table.
std::size_t BodyLenOffset(const ShapeTable& shapes) {
  return 8 + 4 + 4 * shapes.size() + 8;
}

Frame EncodeSimpleUpload(Scheme scheme, const std::vector<float>& trained,
                         const std::vector<float>& reference,
                         const ShapeTable& shapes, double fraction = 0.25) {
  CodecOptions options;
  options.scheme = scheme;
  options.topk_fraction = fraction;
  std::vector<float> residual;
  util::Rng rng(99);
  Frame frame;
  EncodeUpload(options, trained, reference, shapes, residual, rng, frame);
  return frame;
}

// --- helpers ---------------------------------------------------------------

TEST(WireHelpersTest, Crc32KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32({reinterpret_cast<const std::uint8_t*>(check.data()),
                   check.size()}),
            0xCBF43926u);
  EXPECT_EQ(Crc32({static_cast<const std::uint8_t*>(nullptr), 0}), 0u);
  // Continuation across a split, including one inside an 8-byte block.
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(check.data());
  for (std::size_t split = 0; split <= check.size(); ++split) {
    EXPECT_EQ(Crc32({bytes + split, check.size() - split},
                    Crc32({bytes, split})),
              0xCBF43926u);
  }
}

TEST(WireHelpersTest, TopKCountClampsToValidRange) {
  EXPECT_EQ(TopKCount(0, 0.1), 0u);
  EXPECT_EQ(TopKCount(100, 0.1), 10u);
  EXPECT_EQ(TopKCount(5, 0.1), 1u);     // rounds up from 0.5, floor is 1
  EXPECT_EQ(TopKCount(3, 0.0), 1u);     // never empty
  EXPECT_EQ(TopKCount(10, 1.0), 10u);
  EXPECT_EQ(TopKCount(10, 7.0), 10u);   // never more than n
}

TEST(WireHelpersTest, SchemeNamesRoundTrip) {
  for (Scheme scheme : {Scheme::kIdentity, Scheme::kDelta, Scheme::kInt8,
                        Scheme::kTopK, Scheme::kInt8TopK}) {
    auto parsed = ParseScheme(SchemeName(scheme));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), scheme);
  }
  EXPECT_EQ(ParseScheme("none").value(), Scheme::kIdentity);
  EXPECT_EQ(ParseScheme("int8-topk").value(), Scheme::kInt8TopK);
  EXPECT_FALSE(ParseScheme("gzip").ok());
  EXPECT_FALSE(SchemeIsLossy(Scheme::kIdentity));
  EXPECT_FALSE(SchemeIsLossy(Scheme::kDelta));
  EXPECT_TRUE(SchemeIsLossy(Scheme::kInt8TopK));
}

// --- round-trips over the model zoo ----------------------------------------

TEST(WireRoundTripTest, DispatchIsExactForEveryZooArchitecture) {
  for (const models::ModelFactory& factory : ZooFactories()) {
    nn::Sequential model = factory();
    std::vector<float> flat;
    ShapeTable shapes;
    FlattenModel(model, flat, shapes);
    ASSERT_GT(shapes.size(), 1u);

    Frame frame;
    EncodeDispatch(flat, shapes, frame);
    EXPECT_EQ(frame.size(), DispatchWireBytes(flat.size(), shapes));

    std::vector<float> decoded;
    util::Status status = DecodeDispatch(frame, shapes, decoded);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ExpectParamsBitEqual(flat, decoded);
  }
}

TEST(WireRoundTripTest, IdentityAndDeltaUploadsAreExactForEveryZooArch) {
  for (const models::ModelFactory& factory : ZooFactories()) {
    nn::Sequential model = factory();
    std::vector<float> reference;
    ShapeTable shapes;
    FlattenModel(model, reference, shapes);
    std::vector<float> trained = Perturbed(reference, 7);

    for (Scheme scheme : {Scheme::kIdentity, Scheme::kDelta}) {
      CodecOptions options;
      options.scheme = scheme;
      std::vector<float> residual;  // must stay untouched: lossless path
      util::Rng rng(3);
      Frame frame;
      EncodeUpload(options, trained, reference, shapes, residual, rng, frame);
      EXPECT_TRUE(residual.empty());

      std::vector<float> decoded;
      util::Status status = DecodeUpload(frame, reference, shapes, decoded);
      ASSERT_TRUE(status.ok()) << status.ToString();
      ExpectParamsBitEqual(trained, decoded);
    }
  }
}

TEST(WireRoundTripTest, DeltaIsLosslessOnExtremeBitPatterns) {
  ShapeTable shapes = {8};
  std::vector<float> reference = {0.0f, -0.0f, 1.0f, -1.0f, 1e-38f,
                                  std::numeric_limits<float>::max(), 2.5f,
                                  -3.75f};
  std::vector<float> trained = {
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::denorm_min(),
      -0.0f,
      std::numeric_limits<float>::lowest(),
      2.5f,  // zero delta
      std::nextafterf(-3.75f, 0.0f)};

  Frame frame = EncodeSimpleUpload(Scheme::kDelta, trained, reference, shapes);
  std::vector<float> decoded;
  util::Status status = DecodeUpload(frame, reference, shapes, decoded);
  ASSERT_TRUE(status.ok()) << status.ToString();
  // NaN compares unequal to itself, so losslessness means equal *bits*.
  ExpectParamsBitEqual(trained, decoded);
}

TEST(WireRoundTripTest, DeltaCompressesSmallUpdates) {
  // A realistic update perturbs low-order mantissa bits; the zigzag varint
  // stream must come out smaller than the raw 4-bytes-per-param identity
  // body for payloads whose params are near their dispatched values.
  ShapeTable shapes = {512};
  std::vector<float> reference(512);
  util::Rng rng(11);
  for (float& v : reference) v = static_cast<float>(rng.Normal(0.0, 1.0));
  std::vector<float> trained = reference;
  for (std::size_t i = 0; i < trained.size(); ++i) {
    // Small bit-level drift, the common case after one local epoch.
    trained[i] = std::nextafterf(trained[i], 2.0f * trained[i]);
  }
  Frame delta = EncodeSimpleUpload(Scheme::kDelta, trained, reference, shapes);
  Frame raw =
      EncodeSimpleUpload(Scheme::kIdentity, trained, reference, shapes);
  EXPECT_LT(delta.size(), raw.size() / 2);
}

// --- quantized schemes -----------------------------------------------------

TEST(WireQuantizeTest, Int8ErrorIsBoundedByPerTensorScale) {
  ShapeTable shapes = {64, 256, 32};
  std::size_t n = 64 + 256 + 32;
  std::vector<float> reference(n), trained(n);
  util::Rng rng(21);
  for (std::size_t i = 0; i < n; ++i) {
    reference[i] = static_cast<float>(rng.Normal(0.0, 1.0));
    trained[i] = reference[i] + static_cast<float>(rng.Normal(0.0, 0.05));
  }
  CodecOptions options;
  options.scheme = Scheme::kInt8;
  std::vector<float> residual;
  util::Rng codec_rng(5);
  Frame frame;
  EncodeUpload(options, trained, reference, shapes, residual, codec_rng,
               frame);
  ASSERT_EQ(residual.size(), n);

  std::vector<float> decoded;
  ASSERT_TRUE(DecodeUpload(frame, reference, shapes, decoded).ok());

  std::size_t offset = 0;
  for (std::uint32_t len : shapes) {
    float maxabs = 0.0f;
    for (std::uint32_t i = 0; i < len; ++i) {
      maxabs = std::max(maxabs, std::fabs(trained[offset + i] -
                                          reference[offset + i]));
    }
    // Stochastic rounding moves each coordinate at most one quantization
    // step from its true value.
    float scale = maxabs / 127.0f;
    for (std::uint32_t i = 0; i < len; ++i) {
      float err = std::fabs(decoded[offset + i] - trained[offset + i]);
      EXPECT_LE(err, scale * 1.0001f);
      // The dropped part is exactly what went into the residual.
      EXPECT_NEAR(residual[offset + i],
                  trained[offset + i] - decoded[offset + i], 1e-6f);
    }
    offset += len;
  }
}

TEST(WireQuantizeTest, ErrorFeedbackDrivesCumulativeErrorToZero) {
  // Ship the same true update T times through the quantizer with error
  // feedback. The EF guarantee: the cumulative decoded mass tracks the
  // cumulative true mass to within one quantization step, so the *average*
  // transmitted update converges to the true update as 1/T.
  ShapeTable shapes = {40};
  std::vector<float> reference(40, 0.0f);
  std::vector<float> true_update(40);
  util::Rng rng(31);
  for (float& v : true_update) v = static_cast<float>(rng.Normal(0.0, 0.1));

  for (Scheme scheme : {Scheme::kInt8, Scheme::kTopK, Scheme::kInt8TopK}) {
    CodecOptions options;
    options.scheme = scheme;
    options.topk_fraction = 0.25;
    std::vector<float> residual;
    std::vector<float> cumulative(40, 0.0f);
    const int kRounds = 60;
    for (int t = 0; t < kRounds; ++t) {
      std::vector<float> trained(40);
      for (int i = 0; i < 40; ++i) trained[i] = reference[i] + true_update[i];
      util::Rng codec_rng(1000 + t);
      Frame frame;
      EncodeUpload(options, trained, reference, shapes, residual, codec_rng,
                   frame);
      std::vector<float> decoded;
      ASSERT_TRUE(DecodeUpload(frame, reference, shapes, decoded).ok());
      for (int i = 0; i < 40; ++i) cumulative[i] += decoded[i] - reference[i];
    }
    for (int i = 0; i < 40; ++i) {
      float mean_sent = cumulative[i] / kRounds;
      // Without EF a dropped coordinate would transmit 0 forever; with EF
      // the residual forces it through within a few rounds.
      EXPECT_NEAR(mean_sent, true_update[i], 0.02f)
          << SchemeName(scheme) << " coordinate " << i;
    }
  }
}

TEST(WireQuantizeTest, StochasticRoundingIsSeedDeterministic) {
  ShapeTable shapes = {128};
  std::vector<float> reference(128, 0.5f);
  std::vector<float> trained = Perturbed(reference, 13);
  for (Scheme scheme : {Scheme::kInt8, Scheme::kInt8TopK}) {
    CodecOptions options;
    options.scheme = scheme;
    std::vector<float> residual_a, residual_b;
    util::Rng rng_a(77), rng_b(77);
    Frame frame_a, frame_b;
    EncodeUpload(options, trained, reference, shapes, residual_a, rng_a,
                 frame_a);
    EncodeUpload(options, trained, reference, shapes, residual_b, rng_b,
                 frame_b);
    EXPECT_EQ(frame_a, frame_b);
    EXPECT_EQ(residual_a, residual_b);
  }
}

TEST(WireQuantizeTest, AllZeroUpdateProducesZeroScaleAndExactDecode) {
  ShapeTable shapes = {16};
  std::vector<float> reference(16, 1.25f);
  std::vector<float> trained = reference;  // no training movement
  for (Scheme scheme : {Scheme::kInt8, Scheme::kTopK, Scheme::kInt8TopK}) {
    Frame frame = EncodeSimpleUpload(scheme, trained, reference, shapes);
    std::vector<float> decoded;
    ASSERT_TRUE(DecodeUpload(frame, reference, shapes, decoded).ok());
    ExpectParamsBitEqual(reference, decoded);
  }
}

// --- top-k selection -------------------------------------------------------

TEST(WireTopKTest, KeepsLargestMagnitudesAndBreaksTiesTowardLowIndex) {
  ShapeTable shapes = {8};
  std::vector<float> reference(8, 0.0f);
  //                            0     1     2    3    4    5    6    7
  std::vector<float> trained = {1.0f, -2.0f, 2.0f, 2.0f, 0.5f, 2.0f, 0.0f,
                                3.0f};
  // k = round(0.375 * 8) = 3: index 7 (|3|) wins outright; the four
  // magnitude-2 entries tie and the two lowest indices (1, 2) survive.
  Frame frame =
      EncodeSimpleUpload(Scheme::kTopK, trained, reference, shapes, 0.375);
  std::vector<float> decoded;
  ASSERT_TRUE(DecodeUpload(frame, reference, shapes, decoded).ok());
  std::vector<float> expected = {0.0f, -2.0f, 2.0f, 0.0f,
                                 0.0f, 0.0f,  0.0f, 3.0f};
  EXPECT_EQ(decoded, expected);
}

TEST(WireTopKTest, ResidualHoldsExactlyTheDroppedCoordinates) {
  ShapeTable shapes = {10};
  std::vector<float> reference(10, 0.0f);
  std::vector<float> trained = {5.0f, 0.1f, 0.2f, 4.0f, 0.3f,
                                0.4f, 3.0f, 0.5f, 0.6f, 0.7f};
  CodecOptions options;
  options.scheme = Scheme::kTopK;
  options.topk_fraction = 0.3;  // k = 3 -> indices 0, 3, 6 survive
  std::vector<float> residual;
  util::Rng rng(1);
  Frame frame;
  EncodeUpload(options, trained, reference, shapes, residual, rng, frame);
  ASSERT_EQ(residual.size(), 10u);
  for (int i : {0, 3, 6}) EXPECT_EQ(residual[i], 0.0f) << i;
  for (int i : {1, 2, 4, 5, 7, 8, 9}) {
    EXPECT_EQ(residual[i], trained[i]) << i;
  }
}

TEST(WireTopKTest, SingleParamModelAlwaysShipsItsOneCoordinate) {
  ShapeTable shapes = {1};
  std::vector<float> reference = {2.0f};
  std::vector<float> trained = {-1.5f};
  Frame frame =
      EncodeSimpleUpload(Scheme::kTopK, trained, reference, shapes, 0.01);
  std::vector<float> decoded;
  ASSERT_TRUE(DecodeUpload(frame, reference, shapes, decoded).ok());
  EXPECT_EQ(decoded[0], -1.5f);
}

// --- corrupted uploads stay screenable -------------------------------------

TEST(WireCorruptionTest, NonFiniteUploadDecodesNonFiniteAndSparesResidual) {
  ShapeTable shapes = {6};
  std::vector<float> reference(6, 0.0f);
  std::vector<float> trained = {0.1f,
                                std::numeric_limits<float>::quiet_NaN(),
                                0.2f,
                                0.3f,
                                0.4f,
                                0.5f};
  for (Scheme scheme : {Scheme::kInt8, Scheme::kTopK, Scheme::kInt8TopK}) {
    CodecOptions options;
    options.scheme = scheme;
    options.topk_fraction = 0.5;
    std::vector<float> residual(6, 0.25f);  // pre-existing EF state
    util::Rng rng(4);
    Frame frame;
    EncodeUpload(options, trained, reference, shapes, residual, rng, frame);
    // One corrupted round must not poison the accumulated residual.
    EXPECT_EQ(residual, std::vector<float>(6, 0.25f)) << SchemeName(scheme);

    std::vector<float> decoded;
    ASSERT_TRUE(DecodeUpload(frame, reference, shapes, decoded).ok());
    bool any_nonfinite = false;
    for (float v : decoded) any_nonfinite |= !std::isfinite(v);
    EXPECT_TRUE(any_nonfinite) << SchemeName(scheme);
  }
}

// --- malformed frames ------------------------------------------------------

class WireRejectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reference_.assign(20, 0.5f);
    trained_ = Perturbed(reference_, 5);
    shapes_ = {12, 8};
  }

  util::Status Decode(const Frame& frame, std::vector<float>& out) {
    return DecodeUpload(frame, reference_, shapes_, out);
  }

  ShapeTable shapes_;
  std::vector<float> reference_;
  std::vector<float> trained_;
};

TEST_F(WireRejectTest, TruncationAtEveryBoundaryIsRejected) {
  Frame frame =
      EncodeSimpleUpload(Scheme::kIdentity, trained_, reference_, shapes_);
  std::vector<float> out;
  for (std::size_t keep : {0ul, 3ul, 11ul, frame.size() - 5, frame.size() - 1}) {
    Frame cut(frame.begin(), frame.begin() + keep);
    util::Status status = Decode(cut, out);
    EXPECT_FALSE(status.ok()) << "kept " << keep << " bytes";
    EXPECT_NE(status.ToString().find("malformed"), std::string::npos);
  }
}

TEST_F(WireRejectTest, EverySingleByteFlipTripsTheCrc) {
  Frame frame =
      EncodeSimpleUpload(Scheme::kDelta, trained_, reference_, shapes_);
  std::vector<float> out;
  // Flip a byte in the header, the body, and the CRC itself.
  for (std::size_t at : {0ul, 5ul, frame.size() / 2, frame.size() - 2}) {
    Frame bad = frame;
    bad[at] ^= 0x40;
    EXPECT_FALSE(Decode(bad, out).ok()) << "flipped byte " << at;
  }
}

TEST_F(WireRejectTest, DispatchDecoderRejectsCodedSchemes) {
  Frame frame =
      EncodeSimpleUpload(Scheme::kDelta, trained_, reference_, shapes_);
  std::vector<float> out;
  util::Status status = DecodeDispatch(frame, shapes_, out);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("identity"), std::string::npos);
}

TEST_F(WireRejectTest, ShapeTableMismatchIsRejected) {
  Frame frame =
      EncodeSimpleUpload(Scheme::kIdentity, trained_, reference_, shapes_);
  std::vector<float> out;
  // Same total params, different split: the frame must not decode into a
  // model with a different tensor layout.
  ShapeTable other = {8, 12};
  EXPECT_FALSE(DecodeUpload(frame, reference_, other, out).ok());
  ShapeTable fewer = {12};
  EXPECT_FALSE(DecodeUpload(frame, reference_, fewer, out).ok());
}

TEST_F(WireRejectTest, ReferenceSizeMismatchIsRejected) {
  Frame frame =
      EncodeSimpleUpload(Scheme::kDelta, trained_, reference_, shapes_);
  std::vector<float> out;
  std::vector<float> short_reference(reference_.begin(),
                                     reference_.end() - 1);
  EXPECT_FALSE(
      DecodeUpload(frame, short_reference, shapes_, out).ok());
}

TEST_F(WireRejectTest, UnknownSchemeByteIsRejected) {
  Frame frame =
      EncodeSimpleUpload(Scheme::kIdentity, trained_, reference_, shapes_);
  frame[5] = 200;  // scheme byte past the last known scheme
  FixCrc(frame);
  std::vector<float> out;
  util::Status status = Decode(frame, out);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("unknown scheme"), std::string::npos);
}

TEST_F(WireRejectTest, TrailingDeltaBytesAreRejected) {
  Frame frame =
      EncodeSimpleUpload(Scheme::kDelta, trained_, reference_, shapes_);
  // Splice one extra zero-delta varint byte into the body, keep the header
  // honest about it, and re-sign the frame: the decoder must notice the
  // stream decodes all params before the body ends.
  std::uint64_t body_len = 0;
  std::size_t len_at = BodyLenOffset(shapes_);
  std::memcpy(&body_len, frame.data() + len_at, 8);
  body_len += 1;
  std::memcpy(frame.data() + len_at, &body_len, 8);
  frame.insert(frame.end() - 4, std::uint8_t{0});
  FixCrc(frame);
  std::vector<float> out;
  util::Status status = Decode(frame, out);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("trailing delta"), std::string::npos);
}

TEST_F(WireRejectTest, TopKBitmapPopulationMismatchIsRejected) {
  Frame frame =
      EncodeSimpleUpload(Scheme::kTopK, trained_, reference_, shapes_, 0.25);
  // The bitmap starts right after the u64 k at the head of the body. Set an
  // extra bit: popcount 6 != k 5 must be caught even though the CRC is
  // re-signed (a buggy encoder, not line noise).
  std::size_t body_at = BodyLenOffset(shapes_) + 8;
  std::size_t bitmap_at = body_at + 8;
  for (std::size_t i = 0; i < 20; ++i) {
    std::uint8_t& byte = frame[bitmap_at + i / 8];
    if (((byte >> (i % 8)) & 1u) == 0) {
      byte |= static_cast<std::uint8_t>(1u << (i % 8));
      break;
    }
  }
  FixCrc(frame);
  std::vector<float> out;
  util::Status status = Decode(frame, out);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("population"), std::string::npos);
}

TEST_F(WireRejectTest, TopKCountOutOfRangeIsRejected) {
  Frame frame =
      EncodeSimpleUpload(Scheme::kTopK, trained_, reference_, shapes_, 0.25);
  std::size_t body_at = BodyLenOffset(shapes_) + 8;
  std::uint64_t huge = 1000;  // > param count
  std::memcpy(frame.data() + body_at, &huge, 8);
  FixCrc(frame);
  std::vector<float> out;
  util::Status status = Decode(frame, out);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("out of range"), std::string::npos);
}

TEST_F(WireRejectTest, EmptyAndForeignBuffersAreRejected) {
  std::vector<float> out;
  EXPECT_FALSE(Decode({}, out).ok());
  Frame garbage(100, 0xAB);
  EXPECT_FALSE(Decode(garbage, out).ok());
}

}  // namespace
}  // namespace fedcross::comm
