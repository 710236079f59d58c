#include "serial/ffs.h"

namespace imc::serial {

std::uint64_t FormatDesc::description_bytes() const {
  // name + per-field (name, type, count) entries.
  std::uint64_t total = name.size() + 16;
  for (const auto& f : fields) total += f.name.size() + 16;
  return total;
}

int FormatRegistry::register_format(const FormatDesc& format) {
  for (std::size_t i = 0; i < formats_.size(); ++i) {
    if (formats_[i] == format) return static_cast<int>(i);
  }
  formats_.push_back(format);
  return static_cast<int>(formats_.size() - 1);
}

const FormatDesc* FormatRegistry::lookup(int id) const {
  if (id < 0 || id >= static_cast<int>(formats_.size())) return nullptr;
  return &formats_[static_cast<std::size_t>(id)];
}

double encode_seconds(std::uint64_t bytes, double cpu_speed) {
  // FFS encodes at roughly memcpy speed with field bookkeeping: ~2.5 GB/s
  // on the Titan reference core.
  constexpr double kEncodeBandwidth = 2.5e9;
  return static_cast<double>(bytes) / (kEncodeBandwidth * cpu_speed);
}

}  // namespace imc::serial
