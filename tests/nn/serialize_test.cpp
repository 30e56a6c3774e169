// MLP serialization through gansec.model.v1 "mlp" checkpoints: in-memory
// and file round trips preserve outputs and layer hyperparameters, and
// file I/O failures surface as IoError.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "gansec/error.hpp"
#include "gansec/math/rng.hpp"
#include "gansec/model/checkpoint.hpp"
#include "gansec/model/serialize.hpp"
#include "gansec/nn/activations.hpp"
#include "gansec/nn/dense.hpp"
#include "gansec/nn/dropout.hpp"

namespace gansec::nn {
namespace {

using math::Matrix;
using math::Rng;

Mlp make_full_net(Rng& rng) {
  Mlp net;
  net.emplace<Dense>(3, 5, InitScheme::kHeNormal);
  net.emplace<LeakyRelu>(0.15F);
  net.emplace<Dropout>(0.25F, 42);
  net.emplace<Dense>(5, 4);
  net.emplace<Relu>();
  net.emplace<Dense>(4, 2);
  net.emplace<Tanh>();
  net.emplace<Dense>(2, 1);
  net.emplace<Sigmoid>();
  net.init_weights(rng);
  return net;
}

/// Round trip through checkpoint bytes, without touching the filesystem.
Mlp round_trip_in_memory(const Mlp& net) {
  model::CheckpointWriter writer("mlp");
  model::add_mlp(writer, net, "");
  const model::CheckpointReader reader =
      model::CheckpointReader::from_bytes(writer.to_bytes());
  return model::load_mlp_checkpoint(reader);
}

TEST(Serialize, RoundTripPreservesOutputs) {
  Rng rng(13);
  Mlp net = make_full_net(rng);
  Mlp loaded = round_trip_in_memory(net);
  ASSERT_EQ(loaded.layer_count(), net.layer_count());
  const Matrix x = rng.normal_matrix(4, 3, 0.0F, 1.0F);
  EXPECT_EQ(net.forward(x, false), loaded.forward(x, false));
}

TEST(Serialize, RoundTripPreservesLayerKinds) {
  Rng rng(17);
  Mlp net = make_full_net(rng);
  Mlp loaded = round_trip_in_memory(net);
  ASSERT_EQ(loaded.layer_count(), net.layer_count());
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    EXPECT_EQ(loaded.layer(i).kind(), net.layer(i).kind()) << "layer " << i;
  }
  const auto& lrelu = dynamic_cast<const LeakyRelu&>(loaded.layer(1));
  EXPECT_FLOAT_EQ(lrelu.negative_slope(), 0.15F);
  const auto& dropout = dynamic_cast<const Dropout&>(loaded.layer(2));
  EXPECT_FLOAT_EQ(dropout.rate(), 0.25F);
  EXPECT_EQ(dropout.seed(), 42U);
}

TEST(Serialize, FileRoundTrip) {
  Rng rng(23);
  Mlp net = make_full_net(rng);
  const std::string path = ::testing::TempDir() + "/gansec_mlp_test.gsm";
  model::save_mlp_checkpoint(net, path);
  Mlp loaded = model::load_mlp_checkpoint_file(path);
  const Matrix x = rng.normal_matrix(2, 3, 0.0F, 1.0F);
  EXPECT_EQ(net.forward(x, false), loaded.forward(x, false));
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(model::load_mlp_checkpoint_file("/nonexistent/dir/model.gsm"),
               IoError);
  Mlp net;
  EXPECT_THROW(model::save_mlp_checkpoint(net, "/nonexistent/dir/model.gsm"),
               IoError);
}

}  // namespace
}  // namespace gansec::nn
