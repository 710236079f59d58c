#include <gtest/gtest.h>

#include "serial/ffs.h"

namespace imc::serial {
namespace {

FormatDesc atoms_format(std::uint64_t n) {
  return FormatDesc{"atoms",
                    {{"timestep", FieldType::kUInt64, 1},
                     {"positions", FieldType::kFloat64, n}}};
}

TEST(FormatDesc, DescriptionBytesCoverNames) {
  FormatDesc f = atoms_format(10);
  // "atoms" + 16 + ("timestep"+16) + ("positions"+16)
  EXPECT_EQ(f.description_bytes(), 5u + 16 + 8 + 16 + 9 + 16);
}

TEST(FormatRegistry, DedupsIdenticalFormats) {
  FormatRegistry reg;
  const int a = reg.register_format(atoms_format(100));
  const int b = reg.register_format(atoms_format(100));
  EXPECT_EQ(a, b);
  EXPECT_EQ(reg.size(), 1u);
  const int c = reg.register_format(atoms_format(200));
  EXPECT_NE(a, c);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(FormatRegistry, LookupUnknownReturnsNull) {
  FormatRegistry reg;
  EXPECT_EQ(reg.lookup(0), nullptr);
  EXPECT_EQ(reg.lookup(-3), nullptr);
  reg.register_format(atoms_format(1));
  EXPECT_NE(reg.lookup(0), nullptr);
  EXPECT_EQ(reg.lookup(1), nullptr);
}

TEST(EncodeSeconds, ScalesWithSizeAndCpu) {
  const double t1 = encode_seconds(1'000'000, 1.0);
  const double t2 = encode_seconds(2'000'000, 1.0);
  const double t_slow = encode_seconds(1'000'000, 0.636);
  EXPECT_DOUBLE_EQ(t2, 2 * t1);
  EXPECT_GT(t_slow, t1);
  EXPECT_NEAR(t1, 1e6 / 2.5e9, 1e-12);
}

}  // namespace
}  // namespace imc::serial
