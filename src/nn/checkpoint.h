#ifndef FEDCROSS_NN_CHECKPOINT_H_
#define FEDCROSS_NN_CHECKPOINT_H_

#include <string>

#include "nn/sequential.h"
#include "util/status.h"

namespace fedcross::nn {

// Binary model checkpoints. A checkpoint stores a magic tag, a format
// version, and every parameter tensor (shape + float32 data) in
// registration order. Loading validates the magic, version, and that the
// stored tensors exactly match the target model's parameter layout — a
// checkpoint can only be restored into a model built by the same factory.
//
//   FC_RETURN_IF_ERROR(SaveModel(model, "global.fcpt"));
//   FC_RETURN_IF_ERROR(LoadModel(model, "global.fcpt"));

util::Status SaveModel(Sequential& model, const std::string& path);
util::Status LoadModel(Sequential& model, const std::string& path);

}  // namespace fedcross::nn

#endif  // FEDCROSS_NN_CHECKPOINT_H_
