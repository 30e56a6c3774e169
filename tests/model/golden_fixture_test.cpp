// Forward-compatibility canary: gansec.model.v1 checkpoints committed
// under tests/core/fixtures/ were written once and are NEVER regenerated.
// If this test starts failing, the reader stopped accepting v1 files that
// exist in the wild — that is a format break, and the fix is a reader fix
// (or a versioned v2), never refreshing the fixtures to match.
//
// The weights inside the fixtures are formula-derived exact binary32
// values (no RNG, no libm), so the value assertions are platform-stable.
#include <gtest/gtest.h>

#include <string>

#include "gansec/math/matrix.hpp"
#include "gansec/model/checkpoint.hpp"
#include "gansec/model/serialize.hpp"
#include "gansec/nn/mlp.hpp"

namespace gansec::model {
namespace {

std::string fixture(const char* name) {
  return std::string(GANSEC_MODEL_FIXTURES) + "/" + name;
}

/// The generator's input matrix: formula(2, 3, salt=8).
math::Matrix golden_input() {
  math::Matrix m(2, 3);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      const int k = static_cast<int>(r * 3 + c) * 7 + 8;
      m(r, c) = static_cast<float>((k % 33) - 16) / 64.0F;
    }
  }
  return m;
}

TEST(GoldenFixture, MlpCheckpointStillLoads) {
  const CheckpointReader reader =
      CheckpointReader::from_file(fixture("golden_mlp_v1.gsm"));
  // Integrity facts recorded when the fixture was committed. A changed
  // CRC means the committed file itself was modified — refuse that too.
  EXPECT_EQ(reader.kind(), "mlp");
  EXPECT_EQ(reader.version(), 1U);
  EXPECT_EQ(reader.file_bytes(), 1608U);
  EXPECT_EQ(reader.crc(), 0x474BFD9CU);

  // The tensor directory the v1 writer produced for this network.
  ASSERT_EQ(reader.tensors().size(), 8U);
  for (const char* name :
       {"l0.weight", "l0.bias", "l2.gamma", "l2.beta", "l2.running_mean",
        "l2.running_var", "l3.weight", "l3.bias"}) {
    EXPECT_TRUE(reader.has_tensor(name)) << name;
  }
  EXPECT_EQ(reader.tensor("l0.weight").rows, 3U);
  EXPECT_EQ(reader.tensor("l0.weight").cols, 4U);
  EXPECT_EQ(reader.tensor("l3.weight").rows, 4U);
  EXPECT_EQ(reader.tensor("l3.weight").cols, 2U);

  // Weight values are exact: formula(3, 4, salt=1) element (0,0) is
  // ((0*7+1)%33 - 16)/64 = -15/64.
  const auto [w, count] = reader.f32_view("l0.weight");
  ASSERT_EQ(count, 12U);
  EXPECT_EQ(w[0], -15.0F / 64.0F);

  nn::Mlp mlp = load_mlp_checkpoint(reader);
  ASSERT_EQ(mlp.layer_count(), 5U);
  const math::Matrix& out = mlp.forward(golden_input(), /*training=*/false);
  ASSERT_EQ(out.rows(), 2U);
  ASSERT_EQ(out.cols(), 2U);
  // Inference outputs recorded at fixture-commit time. Tight-but-not-bit
  // tolerance: the forward pass crosses libm (tanh-family/exp), which may
  // legitimately differ by ulps across platforms.
  EXPECT_NEAR(out(0, 0), 0.451084852F, 1e-6F);
  EXPECT_NEAR(out(0, 1), 0.483018816F, 1e-6F);
  EXPECT_NEAR(out(1, 0), 0.451100767F, 1e-6F);
  EXPECT_NEAR(out(1, 1), 0.483270943F, 1e-6F);
}

}  // namespace
}  // namespace gansec::model
