// gansec.model.v1 — the schema-versioned binary checkpoint format.
//
// Algorithm 2 of the paper is "CGAN Model Generation and *Storage*"; this
// module is the storage half done properly: a train-once/serve-many
// container every serving-shaped direction (streaming detector, fleet
// serving, warm-start) loads from. One file holds one object (an Mlp, a
// Cgan or a trainer-resume snapshot):
//
//   [ header | meta (JSON) | padding | payload (tensors) ]
//
// Header — 64 bytes, fixed, little-endian regardless of host:
//   offset  size  field
//        0     8  magic "GANSECM1"
//        8     4  format version (u32, = 1)
//       12     4  header bytes (u32, = 64)
//       16     8  meta offset (u64, = 64)
//       24     8  meta bytes (u64)
//       32     8  payload offset (u64, 64-byte aligned)
//       40     8  payload bytes (u64)
//       48     4  CRC32 (IEEE) of every byte from meta offset to EOF
//       52     4  reserved (u32, = 0)
//       56     8  total file bytes (u64) — catches truncation exactly
//
// Meta — one RFC 8259 object:
//   {"schema":"gansec.model.v1","kind":"cgan",
//    "provenance":{version/git_sha/build_type/compiler/flags, "seeds":{..}},
//    "attrs":{object-specific structure, e.g. the layer list},
//    "tensors":[{"name","dtype","rows","cols","offset","bytes"}, ...]}
//
// Payload — raw tensor bytes in directory order. Every tensor offset
// (relative to the payload start) is 64-byte aligned, and the reader keeps
// the whole file in a 64-byte-aligned buffer, so a tensor view pointer is
// itself 64-byte aligned: a reader (or a future mmap/SIMD consumer) views
// a tensor in place without a deserialization pass.
//
// The loader is paranoid by contract: every malformed, truncated,
// bit-flipped, zero-filled or version-bumped input fails with a typed
// gansec::Error — never UB, never a crash. The `ckpt` ctest label proves
// this under ASan against a corruption-mutant battery.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gansec/math/matrix.hpp"
#include "gansec/obs/json.hpp"

namespace gansec::model {

/// Schema identifier embedded in every checkpoint's meta block.
inline constexpr const char* kCheckpointSchema = "gansec.model.v1";

/// The 8 magic bytes opening every checkpoint file.
inline constexpr char kCheckpointMagic[8] = {'G', 'A', 'N', 'S',
                                             'E', 'C', 'M', '1'};

/// Current (and only) format version.
inline constexpr std::uint32_t kCheckpointVersion = 1;

/// Fixed header size in bytes.
inline constexpr std::size_t kHeaderBytes = 64;

/// Alignment guarantee for the payload region and every tensor offset.
inline constexpr std::size_t kTensorAlignment = 64;

/// IEEE CRC-32 (the zlib/PNG polynomial), table-driven.
std::uint32_t crc32(const void* data, std::size_t bytes,
                    std::uint32_t seed = 0);

/// Element types a tensor can carry.
enum class Dtype : std::uint8_t { kF32, kF64, kU8 };

std::size_t dtype_bytes(Dtype dtype);
std::string_view dtype_name(Dtype dtype);
/// Throws ParseError for an unknown dtype string.
Dtype dtype_from_name(std::string_view name);

/// One tensor-directory entry. `offset` is relative to the payload region
/// and always a multiple of kTensorAlignment.
struct TensorInfo {
  std::string name;
  Dtype dtype = Dtype::kF32;
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
};

/// Builds one checkpoint: attrs + seeds + tensors in, bytes/file out.
/// Provenance (git SHA, build flags, version) is captured automatically
/// from obs::build_info().
class CheckpointWriter {
 public:
  /// `kind` names the stored object ("mlp", "cgan" or "cgan_trainer");
  /// loaders dispatch on it.
  explicit CheckpointWriter(std::string kind);

  /// Object-structure attributes, kept in insertion order. The const
  /// char* overload exists because a string literal would otherwise take
  /// the bool overload (pointer-to-bool is a standard conversion,
  /// string_view construction is not).
  void add_attr(std::string_view key, std::string_view value);
  void add_attr(std::string_view key, const char* value) {
    add_attr(key, std::string_view(value));
  }
  void add_attr(std::string_view key, double value);
  void add_attr(std::string_view key, std::uint64_t value);
  void add_attr(std::string_view key, bool value);
  /// Pre-rendered JSON value (validated at serialization time).
  void add_attr_json(std::string_view key, std::string json_value);

  /// RNG provenance, recorded under provenance.seeds.
  void add_seed(std::string_view name, std::uint64_t seed);

  /// Appends a tensor: payload is copied now, directory entry written at
  /// serialization. Names must be unique; throws InvalidArgumentError on
  /// duplicates or a size/shape mismatch.
  void add_tensor(std::string_view name, Dtype dtype, std::uint64_t rows,
                  std::uint64_t cols, const void* data, std::size_t bytes);
  /// f32 convenience: one matrix, shape taken from it.
  void add_matrix(std::string_view name, const math::Matrix& m);
  /// f64 convenience: a 1 x count vector of doubles.
  void add_f64(std::string_view name, const double* data,
               std::size_t count);
  /// u8 convenience: an opaque byte string (RNG cursors, ...).
  void add_bytes(std::string_view name, std::string_view bytes);

  /// Serializes the complete checkpoint (header + meta + payload).
  std::string to_bytes() const;

  /// Atomic write: serializes to `path + ".tmp"`, fsync-free rename over
  /// `path`. Throws IoError on any filesystem failure.
  void write_file(const std::string& path) const;

 private:
  struct Attr {
    std::string key;
    std::string json_value;
  };

  std::string kind_;
  std::vector<Attr> attrs_;
  std::vector<std::pair<std::string, std::uint64_t>> seeds_;
  std::vector<TensorInfo> tensors_;
  std::string payload_;  ///< concatenated, 64-byte-aligned tensor bytes
};

/// Validated view over one checkpoint. Owns a 64-byte-aligned copy of the
/// file bytes, so tensor views handed out stay alive (and aligned) for the
/// reader's lifetime. All structural validation — magic, version, bounds,
/// CRC, meta grammar, tensor directory — happens in from_bytes()/
/// from_file(); a constructed reader is internally consistent.
class CheckpointReader {
 public:
  /// Parses and validates. Throws ParseError on any structural defect
  /// (bad magic, unsupported version, checksum mismatch, malformed meta,
  /// out-of-range tensor, misaligned offset) and IoError on truncation.
  static CheckpointReader from_bytes(std::string_view bytes);
  /// Reads the whole file then delegates to from_bytes(). Throws IoError
  /// when the file is missing/unreadable.
  static CheckpointReader from_file(const std::string& path);

  CheckpointReader(CheckpointReader&&) noexcept = default;
  CheckpointReader& operator=(CheckpointReader&&) noexcept = default;
  CheckpointReader(const CheckpointReader&) = delete;
  CheckpointReader& operator=(const CheckpointReader&) = delete;

  const std::string& kind() const { return kind_; }
  std::uint32_t version() const { return version_; }
  std::uint32_t crc() const { return crc_; }
  std::uint64_t payload_bytes() const { return payload_bytes_; }
  std::uint64_t meta_bytes() const { return meta_bytes_; }
  std::uint64_t file_bytes() const { return file_bytes_; }

  /// The parsed meta object (schema/kind/provenance/attrs/tensors).
  const obs::JsonValue& meta() const { return meta_; }
  /// attrs member, or nullptr when the object recorded none.
  const obs::JsonValue* attrs() const { return meta_.find("attrs"); }
  /// provenance member (always present).
  const obs::JsonValue* provenance() const {
    return meta_.find("provenance");
  }

  const std::vector<TensorInfo>& tensors() const { return tensors_; }
  /// Directory lookup; throws ParseError when `name` is absent.
  const TensorInfo& tensor(std::string_view name) const;
  bool has_tensor(std::string_view name) const;

  /// Raw pointer into the aligned in-memory payload for `info`. The
  /// pointer is kTensorAlignment-aligned and valid for the reader's
  /// lifetime.
  const std::byte* tensor_data(const TensorInfo& info) const;

  /// Zero-copy typed views (dtype-checked; throw ParseError on mismatch).
  /// The pointers are 64-byte aligned and live as long as the reader.
  std::pair<const float*, std::size_t> f32_view(std::string_view name) const;
  std::pair<const double*, std::size_t> f64_view(
      std::string_view name) const;
  std::string_view bytes_view(std::string_view name) const;

  /// Owning copy of an f32 tensor as a Matrix (trainable weights must own
  /// their storage; serving-only consumers use the views above instead).
  math::Matrix read_matrix(std::string_view name) const;

  /// Typed attr readers; throw ParseError when absent or mistyped.
  std::string attr_string(std::string_view key) const;
  double attr_number(std::string_view key) const;
  std::uint64_t attr_u64(std::string_view key) const;
  bool attr_bool(std::string_view key) const;

 private:
  CheckpointReader() = default;

  /// File bytes in a 64-byte-aligned buffer.
  struct AlignedDeleter {
    void operator()(std::byte* p) const {
      ::operator delete[](p, std::align_val_t{kTensorAlignment});
    }
  };
  std::unique_ptr<std::byte[], AlignedDeleter> data_;
  std::uint64_t file_bytes_ = 0;
  std::uint64_t payload_offset_ = 0;
  std::uint64_t payload_bytes_ = 0;
  std::uint64_t meta_bytes_ = 0;
  std::uint32_t version_ = 0;
  std::uint32_t crc_ = 0;
  std::string kind_;
  obs::JsonValue meta_;
  std::vector<TensorInfo> tensors_;
};

}  // namespace gansec::model
