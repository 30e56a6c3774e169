// gansec.model.v1 format-core battery: every header/meta/payload guarantee
// the checkpoint documentation makes is pinned by a test here that would
// catch its violation (CRC algorithm, header field layout, alignment,
// typed attr readers, writer-side validation, atomic file writes).
#include "gansec/model/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>

#include "gansec/error.hpp"
#include "gansec/math/matrix.hpp"

namespace gansec::model {
namespace {

namespace fs = std::filesystem;

std::uint32_t le32(const std::string& bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) |
        static_cast<std::uint8_t>(bytes[at + static_cast<std::size_t>(i)]);
  }
  return v;
}

std::uint64_t le64(const std::string& bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) |
        static_cast<std::uint8_t>(bytes[at + static_cast<std::size_t>(i)]);
  }
  return v;
}

math::Matrix ramp_matrix(std::size_t rows, std::size_t cols) {
  math::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m(r, c) = static_cast<float>(r * cols + c) * 0.25F - 1.0F;
    }
  }
  return m;
}

TEST(Crc32, KnownVector) {
  // The IEEE CRC-32 check value every implementation must reproduce.
  const char* data = "123456789";
  EXPECT_EQ(crc32(data, 9), 0xCBF43926U);
  EXPECT_EQ(crc32(data, 0), 0U);
}

TEST(Crc32, SeedChainsIncrementally) {
  const char* data = "123456789";
  const std::uint32_t whole = crc32(data, 9);
  const std::uint32_t part = crc32(data, 4);
  EXPECT_EQ(crc32(data + 4, 5, part), whole);
}

TEST(Dtypes, NamesRoundTripAndSizesMatch) {
  for (const Dtype d : {Dtype::kF32, Dtype::kF64, Dtype::kU8}) {
    EXPECT_EQ(dtype_from_name(dtype_name(d)), d);
  }
  EXPECT_EQ(dtype_bytes(Dtype::kF32), 4U);
  EXPECT_EQ(dtype_bytes(Dtype::kF64), 8U);
  EXPECT_EQ(dtype_bytes(Dtype::kU8), 1U);
  EXPECT_THROW(dtype_from_name("f16"), ParseError);
}

TEST(CheckpointWriter, EmptyKindThrows) {
  EXPECT_THROW(CheckpointWriter{std::string()}, InvalidArgumentError);
}

TEST(CheckpointWriter, HeaderFieldLayout) {
  CheckpointWriter writer("mlp");
  const math::Matrix m = ramp_matrix(3, 5);
  writer.add_matrix("w", m);
  const std::string bytes = writer.to_bytes();

  ASSERT_GE(bytes.size(), kHeaderBytes);
  EXPECT_EQ(std::memcmp(bytes.data(), kCheckpointMagic, 8), 0);
  EXPECT_EQ(le32(bytes, 8), kCheckpointVersion);
  EXPECT_EQ(le32(bytes, 12), kHeaderBytes);
  EXPECT_EQ(le64(bytes, 16), kHeaderBytes);  // meta offset
  const std::uint64_t meta_bytes = le64(bytes, 24);
  const std::uint64_t payload_offset = le64(bytes, 32);
  const std::uint64_t payload_bytes = le64(bytes, 40);
  EXPECT_EQ(payload_offset % kTensorAlignment, 0U);
  EXPECT_GE(payload_offset, kHeaderBytes + meta_bytes);
  EXPECT_EQ(le32(bytes, 52), 0U);  // reserved
  EXPECT_EQ(le64(bytes, 56), bytes.size());
  EXPECT_EQ(payload_offset + payload_bytes, bytes.size());
  // Recorded CRC covers exactly [meta offset, EOF).
  EXPECT_EQ(le32(bytes, 48),
            crc32(bytes.data() + kHeaderBytes, bytes.size() - kHeaderBytes));
}

TEST(CheckpointWriter, DuplicateTensorNameThrows) {
  CheckpointWriter writer("mlp");
  const math::Matrix m = ramp_matrix(2, 2);
  writer.add_matrix("w", m);
  EXPECT_THROW(writer.add_matrix("w", m), InvalidArgumentError);
}

TEST(CheckpointWriter, EmptyTensorNameThrows) {
  CheckpointWriter writer("mlp");
  const math::Matrix m = ramp_matrix(2, 2);
  EXPECT_THROW(writer.add_matrix("", m), InvalidArgumentError);
}

TEST(CheckpointWriter, ShapeByteMismatchThrows) {
  CheckpointWriter writer("mlp");
  const float data[4] = {};
  // 2 x 2 f32 is 16 bytes; claim 12.
  EXPECT_THROW(writer.add_tensor("w", Dtype::kF32, 2, 2, data, 12),
               InvalidArgumentError);
}

TEST(CheckpointWriter, InvalidAttrJsonThrows) {
  CheckpointWriter writer("mlp");
  EXPECT_THROW(writer.add_attr_json("layers", "{not json"),
               InvalidArgumentError);
}

TEST(CheckpointRoundTrip, AttrsSeedsAndTensors) {
  CheckpointWriter writer("mlp");
  writer.add_attr("note", std::string_view("hello \"world\""));
  writer.add_attr("rate", 0.25);
  writer.add_attr("count", std::uint64_t{42});
  writer.add_attr("flag", true);
  writer.add_attr_json("shape", "[3,5]");
  writer.add_seed("weights", 0x6E44U);
  const math::Matrix m = ramp_matrix(3, 5);
  writer.add_matrix("w", m);
  const double doubles[3] = {1.5, -2.25, 3.125};
  writer.add_f64("d", doubles, 3);
  // Embedded NUL and high bytes must survive; the explicit length avoids
  // strlen truncation at the NUL.
  writer.add_bytes("blob", std::string_view("\x00\x01\xFFraw", 6));

  const CheckpointReader reader = CheckpointReader::from_bytes(
      writer.to_bytes());
  EXPECT_EQ(reader.kind(), "mlp");
  EXPECT_EQ(reader.version(), kCheckpointVersion);
  EXPECT_EQ(reader.attr_string("note"), "hello \"world\"");
  EXPECT_EQ(reader.attr_number("rate"), 0.25);
  EXPECT_EQ(reader.attr_u64("count"), 42U);
  EXPECT_TRUE(reader.attr_bool("flag"));

  ASSERT_EQ(reader.tensors().size(), 3U);
  EXPECT_TRUE(reader.has_tensor("w"));
  EXPECT_FALSE(reader.has_tensor("nope"));
  const TensorInfo& w = reader.tensor("w");
  EXPECT_EQ(w.dtype, Dtype::kF32);
  EXPECT_EQ(w.rows, 3U);
  EXPECT_EQ(w.cols, 5U);
  EXPECT_EQ(reader.read_matrix("w"), m);

  const auto [dptr, dcount] = reader.f64_view("d");
  ASSERT_EQ(dcount, 3U);
  EXPECT_EQ(std::memcmp(dptr, doubles, sizeof(doubles)), 0);
  EXPECT_EQ(reader.bytes_view("blob"), std::string_view("\x00\x01\xFFraw", 6));

  // Recorded seed lands under provenance.seeds.
  const obs::JsonValue* prov = reader.provenance();
  ASSERT_NE(prov, nullptr);
  const obs::JsonValue* seed = prov->find_path({"seeds", "weights"});
  ASSERT_NE(seed, nullptr);
  EXPECT_EQ(seed->as_number(), static_cast<double>(0x6E44U));
}

TEST(CheckpointRoundTrip, TensorViewsAre64ByteAligned) {
  CheckpointWriter writer("mlp");
  // Deliberately ragged sizes so inter-tensor padding is exercised.
  writer.add_matrix("a", ramp_matrix(1, 3));
  writer.add_matrix("b", ramp_matrix(5, 7));
  const double d[5] = {1, 2, 3, 4, 5};
  writer.add_f64("c", d, 5);
  const CheckpointReader reader =
      CheckpointReader::from_bytes(writer.to_bytes());
  for (const char* name : {"a", "b"}) {
    const auto [ptr, count] = reader.f32_view(name);
    EXPECT_GT(count, 0U);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(ptr) % kTensorAlignment, 0U)
        << name;
  }
  const auto [cptr, ccount] = reader.f64_view("c");
  EXPECT_EQ(ccount, 5U);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(cptr) % kTensorAlignment, 0U);
}

TEST(CheckpointRoundTrip, SerializationIsByteDeterministic) {
  auto build = [] {
    CheckpointWriter writer("mlp");
    writer.add_attr("rate", 0.5);
    writer.add_seed("s", 7);
    writer.add_matrix("w", ramp_matrix(4, 4));
    return writer.to_bytes();
  };
  EXPECT_EQ(build(), build());
}

TEST(CheckpointReader, MissingTensorThrowsTyped) {
  CheckpointWriter writer("mlp");
  writer.add_matrix("w", ramp_matrix(2, 2));
  const CheckpointReader reader =
      CheckpointReader::from_bytes(writer.to_bytes());
  EXPECT_THROW(reader.tensor("nope"), ParseError);
  EXPECT_THROW(reader.f32_view("nope"), ParseError);
}

TEST(CheckpointReader, DtypeMismatchThrowsTyped) {
  CheckpointWriter writer("mlp");
  writer.add_matrix("w", ramp_matrix(2, 2));
  const double d[2] = {1, 2};
  writer.add_f64("d", d, 2);
  const CheckpointReader reader =
      CheckpointReader::from_bytes(writer.to_bytes());
  EXPECT_THROW(reader.f64_view("w"), ParseError);
  EXPECT_THROW(reader.f32_view("d"), ParseError);
  EXPECT_THROW(reader.bytes_view("w"), ParseError);
  EXPECT_THROW(reader.read_matrix("d"), ParseError);
}

TEST(CheckpointReader, AttrErrorsAreTyped) {
  CheckpointWriter writer("mlp");
  writer.add_attr("s", std::string_view("text"));
  writer.add_attr("n", -1.0);
  writer.add_attr("frac", 1.5);
  writer.add_matrix("w", ramp_matrix(1, 1));
  const CheckpointReader reader =
      CheckpointReader::from_bytes(writer.to_bytes());
  EXPECT_THROW(reader.attr_string("missing"), ParseError);
  EXPECT_THROW(reader.attr_number("s"), ParseError);
  EXPECT_THROW(reader.attr_bool("s"), ParseError);
  EXPECT_THROW(reader.attr_u64("n"), ParseError);    // negative
  EXPECT_THROW(reader.attr_u64("frac"), ParseError);  // fractional
}

TEST(CheckpointFile, WriteIsAtomicAndLeavesNoTemp) {
  const fs::path dir = fs::path(::testing::TempDir()) / "gansec_ckpt_fmt";
  fs::create_directories(dir);
  const fs::path path = dir / "model.gsm";
  CheckpointWriter writer("mlp");
  writer.add_matrix("w", ramp_matrix(3, 3));
  writer.write_file(path.string());
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path.string() + ".tmp"));
  const CheckpointReader reader = CheckpointReader::from_file(path.string());
  EXPECT_EQ(reader.kind(), "mlp");
  EXPECT_EQ(reader.file_bytes(), fs::file_size(path));
  fs::remove_all(dir);
}

TEST(CheckpointFile, MissingFileThrowsIoError) {
  EXPECT_THROW(
      CheckpointReader::from_file("/nonexistent/gansec/model.gsm"),
      IoError);
  EXPECT_THROW(
      CheckpointWriter("mlp").write_file("/nonexistent/gansec/model.gsm"),
      IoError);
}

}  // namespace
}  // namespace gansec::model
