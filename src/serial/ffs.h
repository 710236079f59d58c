// FFS-style self-describing serialization (Eisenhauer et al.).
//
// Flexpath serializes staged data with Fast Flexible Serialization: a
// *format* (named, typed field list) is registered once and referenced by
// id; events on the wire carry a compact header plus raw field data, and a
// reader that sees an unknown format id first fetches the format description
// (the format handshake Flexpath performs on first contact). Decaf's data
// model is charged at the same encode rate.
//
// Wire layout modeled: header (format id + lengths) + packed field payloads.
// Encode/decode CPU cost is charged by callers via encode_seconds(), scaled
// by machine CPU speed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace imc::serial {

enum class FieldType : std::uint8_t { kFloat64, kInt64, kUInt64, kByte };

struct FieldDesc {
  std::string name;
  FieldType type = FieldType::kFloat64;
  std::uint64_t count = 1;  // array length

  bool operator==(const FieldDesc&) const = default;
};

struct FormatDesc {
  std::string name;
  std::vector<FieldDesc> fields;

  // Bytes of the format description itself (sent once per reader during the
  // handshake).
  std::uint64_t description_bytes() const;
  bool operator==(const FormatDesc&) const = default;
};

// Per-event wire header: format id, event length, field count table.
inline constexpr std::uint64_t kEventHeaderBytes = 24;

// Registers formats and answers decode-side lookups. One registry is shared
// per connection domain (Flexpath's format server).
class FormatRegistry {
 public:
  // Identical formats dedup to the same id.
  int register_format(const FormatDesc& format);

  const FormatDesc* lookup(int id) const;
  std::size_t size() const { return formats_.size(); }

 private:
  std::vector<FormatDesc> formats_;
};

// CPU seconds to encode/decode `bytes` on a machine with relative speed
// `cpu_speed` (1.0 = Titan reference core).
double encode_seconds(std::uint64_t bytes, double cpu_speed);

}  // namespace imc::serial
