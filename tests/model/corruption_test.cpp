// gansec.model.v1 corruption battery: every mutated input must fail with
// a typed gansec::Error — never UB, never a crash. The whole file runs
// under the asan preset (ctest -L ckpt), so an out-of-bounds read on a
// corrupt input is a test failure, not a silent latent bug.
//
// The exhaustive single-bit-flip sweep covers bytes [0,52) and
// [56, total): the reserved header word at [52,56) is by design neither
// validated nor CRC-covered (it is the v2 extension point — old readers
// must ignore whatever a future writer puts there).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "gansec/error.hpp"
#include "gansec/math/matrix.hpp"
#include "gansec/model/checkpoint.hpp"
#include "gansec/model/serialize.hpp"
#include "gansec/nn/activations.hpp"
#include "gansec/nn/dense.hpp"
#include "gansec/nn/mlp.hpp"

namespace gansec::model {
namespace {

/// One small but fully featured checkpoint, built once per test.
std::string fixture_bytes() {
  CheckpointWriter writer("mlp");
  writer.add_attr("note", std::string_view("corruption fixture"));
  writer.add_seed("s", 0x6E44U);
  math::Matrix w(3, 5);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      w(r, c) = static_cast<float>(r * 5 + c) * 0.5F;
    }
  }
  writer.add_matrix("w", w);
  const double d[3] = {1.0, 2.0, 3.0};
  writer.add_f64("d", d, 3);
  return writer.to_bytes();
}

void put_le32(std::string& bytes, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFFU);
  }
}

TEST(Corruption, EmptyInputFailsTyped) {
  EXPECT_THROW(CheckpointReader::from_bytes(std::string_view{}), IoError);
}

TEST(Corruption, EveryTruncationFailsTyped) {
  const std::string good = fixture_bytes();
  // Sub-header truncations are IoError("truncated header").
  for (const std::size_t cut : {std::size_t{1}, std::size_t{10},
                                std::size_t{63}}) {
    EXPECT_THROW(CheckpointReader::from_bytes(good.substr(0, cut)), IoError)
        << "cut at " << cut;
  }
  // Every longer truncation disagrees with the header's recorded total
  // file size and fails as IoError("truncated file").
  for (std::size_t cut = kHeaderBytes; cut < good.size(); ++cut) {
    EXPECT_THROW(CheckpointReader::from_bytes(good.substr(0, cut)), IoError)
        << "cut at " << cut;
  }
}

TEST(Corruption, AppendedGarbageFailsTyped) {
  std::string grown = fixture_bytes();
  grown += '\x42';
  EXPECT_THROW(CheckpointReader::from_bytes(grown), IoError);
}

TEST(Corruption, EverySingleBitFlipFailsTyped) {
  const std::string good = fixture_bytes();
  // Sanity: the pristine bytes parse.
  EXPECT_NO_THROW(CheckpointReader::from_bytes(good));

  std::string mutant = good;
  std::size_t flips = 0;
  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    if (byte >= 52 && byte < 56) continue;  // reserved, un-validated
    for (int bit = 0; bit < 8; ++bit) {
      mutant[byte] =
          static_cast<char>(static_cast<std::uint8_t>(good[byte]) ^
                            (1U << bit));
      EXPECT_THROW(CheckpointReader::from_bytes(mutant), Error)
          << "byte " << byte << " bit " << bit;
      ++flips;
    }
    mutant[byte] = good[byte];
  }
  // The sweep really was exhaustive.
  EXPECT_EQ(flips, (good.size() - 4) * 8);
}

TEST(Corruption, ReservedFieldIsIgnoredByDesign) {
  // The flip sweep above skips [52,56); pin the reason: a nonzero
  // reserved word must NOT fail, or v2 writers could never use it.
  std::string mutant = fixture_bytes();
  put_le32(mutant, 52, 0xDEADBEEFU);
  EXPECT_NO_THROW(CheckpointReader::from_bytes(mutant));
}

TEST(Corruption, VersionBumpFailsTypedWithMessage) {
  std::string mutant = fixture_bytes();
  put_le32(mutant, 8, 2);  // a future format version
  try {
    CheckpointReader::from_bytes(mutant);
    FAIL() << "version 2 input parsed";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported schema version"),
              std::string::npos)
        << e.what();
  }
}

TEST(Corruption, ZeroFillsFailTyped) {
  const std::string good = fixture_bytes();
  // Whole file zeroed: bad magic.
  EXPECT_THROW(
      CheckpointReader::from_bytes(std::string(good.size(), '\0')),
      ParseError);
  // Meta region zeroed: CRC mismatch.
  {
    std::string mutant = good;
    for (std::size_t i = kHeaderBytes; i < kHeaderBytes + 32; ++i) {
      mutant[i] = '\0';
    }
    EXPECT_THROW(CheckpointReader::from_bytes(mutant), ParseError);
  }
  // Payload tail zeroed: CRC mismatch (unless it was already zero — the
  // fixture's final tensor bytes are not).
  {
    std::string mutant = good;
    for (std::size_t i = good.size() - 16; i < good.size(); ++i) {
      mutant[i] = '\0';
    }
    EXPECT_THROW(CheckpointReader::from_bytes(mutant), ParseError);
  }
}

/// Meta surgery with a recomputed CRC: proves validation does not stop at
/// the checksum — semantic checks run on checksum-clean input too.
std::string patch_meta(const std::string& good, const std::string& find,
                       const std::string& replace) {
  std::string mutant = good;
  const std::size_t at = mutant.find(find);
  EXPECT_NE(at, std::string::npos) << "fixture lacks '" << find << "'";
  mutant.replace(at, find.size(), replace);
  EXPECT_EQ(mutant.size(), good.size())
      << "patch must be size-preserving to keep offsets valid";
  put_le32(mutant, 48,
           crc32(mutant.data() + kHeaderBytes,
                 mutant.size() - kHeaderBytes));
  return mutant;
}

TEST(Corruption, ChecksumCleanSchemaTamperFailsTyped) {
  const std::string mutant =
      patch_meta(fixture_bytes(), "gansec.model.v1", "gansec.model.v9");
  EXPECT_THROW(CheckpointReader::from_bytes(mutant), ParseError);
}

TEST(Corruption, ChecksumCleanDtypeTamperFailsTyped) {
  // "d" is a 3-element f64 tensor (24 bytes). Claiming f32 breaks the
  // shape/byte-size consistency check.
  const std::string mutant =
      patch_meta(fixture_bytes(), "\"dtype\":\"f64\"", "\"dtype\":\"f32\"");
  EXPECT_THROW(CheckpointReader::from_bytes(mutant), ParseError);
}

TEST(Corruption, ChecksumCleanKindMismatchFailsInLoader) {
  // A structurally valid checkpoint of the wrong kind must fail in the
  // typed loaders, not produce a half-initialized object.
  const std::string mutant =
      patch_meta(fixture_bytes(), "\"kind\":\"mlp\"", "\"kind\":\"rnn\"");
  const CheckpointReader reader = CheckpointReader::from_bytes(mutant);
  EXPECT_THROW(load_mlp_checkpoint(reader), ParseError);
  EXPECT_THROW(load_cgan_checkpoint(reader), ParseError);
}

TEST(Corruption, ChecksumCleanMissingTensorFailsInLoader) {
  // Renaming the weight tensor leaves a valid container whose directory no
  // longer matches the recorded layer structure.
  nn::Mlp mlp;
  mlp.emplace<nn::Dense>(2, 3);
  CheckpointWriter writer("mlp");
  add_mlp(writer, mlp, "");
  const std::string mutant = patch_meta(
      writer.to_bytes(), "\"name\":\"l0.weight\"", "\"name\":\"l0.wXight\"");
  const CheckpointReader reader = CheckpointReader::from_bytes(mutant);
  EXPECT_THROW(load_mlp_checkpoint(reader), ParseError);
}

TEST(Corruption, ChecksumCleanUnknownLayerKindFailsInLoader) {
  // A layer kind this build does not know fails typed; it is never
  // skipped or misread as another kind.
  nn::Mlp mlp;
  mlp.emplace<nn::Relu>();
  CheckpointWriter writer("mlp");
  add_mlp(writer, mlp, "");
  const std::string mutant = patch_meta(
      writer.to_bytes(), "\"kind\":\"relu\"", "\"kind\":\"rexu\"");
  const CheckpointReader reader = CheckpointReader::from_bytes(mutant);
  EXPECT_THROW(load_mlp_checkpoint(reader), ParseError);
}

TEST(Corruption, HeaderOnlyFileFailsTyped) {
  // 64 valid-looking header bytes and nothing else: meta is out of range.
  std::string mutant = fixture_bytes().substr(0, kHeaderBytes);
  EXPECT_THROW(CheckpointReader::from_bytes(mutant), Error);
}

TEST(Corruption, TextModelFileFailsTyped) {
  // A text file (e.g. a model in the retired text format) is rejected by
  // magic, not misparsed.
  const std::string text = "gansec-cgan-v1\n4 2 3\n";
  EXPECT_THROW(CheckpointReader::from_bytes(text), Error);
}

}  // namespace
}  // namespace gansec::model
