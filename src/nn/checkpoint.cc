#include "nn/checkpoint.h"

#include <cstdint>
#include <cstring>
#include <fstream>

namespace fedcross::nn {
namespace {

constexpr std::uint32_t kMagic = 0x46435054;  // "FCPT"
constexpr std::uint32_t kVersion = 1;

void AppendU32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), bytes, bytes + sizeof(value));
}

bool ReadU32(const std::vector<std::uint8_t>& in, std::size_t& offset,
             std::uint32_t& value) {
  if (offset + sizeof(value) > in.size()) return false;
  std::memcpy(&value, in.data() + offset, sizeof(value));
  offset += sizeof(value);
  return true;
}

util::Status WriteFile(const std::string& path,
                       const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.good()) return util::Status::Internal("cannot open " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out.good()) return util::Status::Internal("short write to " + path);
  return util::Status::Ok();
}

util::StatusOr<std::vector<std::uint8_t>> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.good()) return util::Status::NotFound("cannot open " + path);
  std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in.good()) return util::Status::Internal("short read from " + path);
  return bytes;
}

util::Status CheckHeader(const std::vector<std::uint8_t>& bytes,
                         std::size_t& offset, std::uint32_t& count) {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  if (!ReadU32(bytes, offset, magic) || magic != kMagic) {
    return util::Status::InvalidArgument("not a FedCross checkpoint");
  }
  if (!ReadU32(bytes, offset, version) || version != kVersion) {
    return util::Status::InvalidArgument("unsupported checkpoint version");
  }
  if (!ReadU32(bytes, offset, count)) {
    return util::Status::InvalidArgument("truncated checkpoint header");
  }
  return util::Status::Ok();
}

}  // namespace

util::Status SaveModel(Sequential& model, const std::string& path) {
  std::vector<std::uint8_t> bytes;
  AppendU32(bytes, kMagic);
  AppendU32(bytes, kVersion);
  AppendU32(bytes, static_cast<std::uint32_t>(model.Params().size()));
  for (Param* param : model.Params()) {
    param->value.SerializeTo(bytes);
  }
  return WriteFile(path, bytes);
}

util::Status LoadModel(Sequential& model, const std::string& path) {
  auto bytes_or = ReadFile(path);
  if (!bytes_or.ok()) return bytes_or.status();
  const std::vector<std::uint8_t>& bytes = bytes_or.value();

  std::size_t offset = 0;
  std::uint32_t count = 0;
  FC_RETURN_IF_ERROR(CheckHeader(bytes, offset, count));
  if (count != model.Params().size()) {
    return util::Status::FailedPrecondition(
        "checkpoint has " + std::to_string(count) + " tensors, model has " +
        std::to_string(model.Params().size()));
  }
  // Stage into temporaries first so a malformed file cannot leave the model
  // half-loaded.
  std::vector<Tensor> staged(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!Tensor::DeserializeFrom(bytes, offset, staged[i])) {
      return util::Status::InvalidArgument("corrupt tensor " +
                                           std::to_string(i));
    }
    if (!staged[i].SameShape(model.Params()[i]->value)) {
      return util::Status::FailedPrecondition(
          "tensor " + std::to_string(i) + " shape mismatch: checkpoint " +
          staged[i].ShapeString() + " vs model " +
          model.Params()[i]->value.ShapeString());
    }
  }
  if (offset != bytes.size()) {
    return util::Status::InvalidArgument("trailing bytes in checkpoint");
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    model.Params()[i]->value = std::move(staged[i]);
  }
  return util::Status::Ok();
}

}  // namespace fedcross::nn
