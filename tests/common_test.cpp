#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/audit.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/units.h"

namespace imc {
namespace {

// The leak report lists resources in enum order and, within each, owners
// in sorted order, however the ledger stores them.
TEST(Auditor, EqualLengthOwnersInOneStringAreChargedSeparately) {
  // One std::string object re-used for two equal-length owners keeps its
  // address (and, short or long, its buffer): the address index must not
  // hand the second owner the first one's entry.
  for (const std::string prefix : {"r", "a-long-owner-prefix-beyond-sso/"}) {
    audit::Auditor a;
    const auto r = audit::Resource::kProcessBytes;
    std::string owner = prefix + "1";
    a.acquire(r, owner, 10);
    owner = prefix + "2";
    a.acquire(r, owner, 5);
    EXPECT_EQ(a.outstanding(r), 15u);
    EXPECT_EQ(a.leaks(),
              (std::vector<std::string>{
                  "process-bytes: 10 outstanding (" + prefix + "1)",
                  "process-bytes: 5 outstanding (" + prefix + "2)"}));
    owner = prefix + "1";
    a.release(r, owner, 10);
    EXPECT_EQ(a.leaks(),
              (std::vector<std::string>{"process-bytes: 5 outstanding (" +
                                        prefix + "2)"}));
    owner = prefix + "2";
    a.release(r, owner, 5);
    EXPECT_EQ(a.outstanding(r), 0u);
    EXPECT_TRUE(a.clean());
  }
}

TEST(Auditor, ZeroCountOwnersAreAbsentFromLeaks) {
  audit::Auditor a;
  const std::string staged = "ds-server-0";
  const std::string bytes = "ds-server-0/staging";
  a.acquire(audit::Resource::kStagedObject, staged, 2);
  a.acquire(audit::Resource::kProcessBytes, bytes, 64);
  a.release(audit::Resource::kStagedObject, staged, 2);
  EXPECT_EQ(a.leaks(), (std::vector<std::string>{
                           "process-bytes: 64 outstanding "
                           "(ds-server-0/staging)"}));
  a.release(audit::Resource::kProcessBytes, bytes, 64);
  EXPECT_TRUE(a.leaks().empty());
  EXPECT_TRUE(a.clean());
  // A drained owner charges again from zero.
  a.acquire(audit::Resource::kStagedObject, staged, 1);
  EXPECT_EQ(a.outstanding(audit::Resource::kStagedObject), 1u);
}

TEST(Auditor, ReleaseAfterResetIsClamped) {
  audit::Auditor a;
  const std::string owner = "rank7/library";
  const auto r = audit::Resource::kProcessBytes;
  a.acquire(r, owner, 100);
  a.reset();
  a.release(r, owner, 100);  // the entry is gone with the reset: ignored
  EXPECT_EQ(a.outstanding(r), 0u);
  EXPECT_TRUE(a.clean());
  a.acquire(r, owner, 30);
  a.release(r, owner, 50);  // clamped to the 30 outstanding
  EXPECT_EQ(a.outstanding(r), 0u);
  EXPECT_TRUE(a.leaks().empty());
  a.acquire(r, owner, 5);
  EXPECT_EQ(a.outstanding(r), 5u);
}

TEST(Auditor, LeakLinesSortedByOwnerWithinEachResource) {
  audit::Auditor a;
  std::vector<std::string> owners;
  for (int i = 0; i < 40; ++i) {
    owners.push_back("rank" + std::to_string((i * 17) % 40) + "/library");
  }
  for (std::size_t i = 0; i < owners.size(); ++i) {
    a.acquire(audit::Resource::kStagedObject, owners[i], i + 1);
    a.acquire(audit::Resource::kProcessBytes, owners[i], 100 + i);
  }
  a.violation("double unlock");
  std::vector<std::string> want;
  for (auto r : {audit::Resource::kProcessBytes,
                 audit::Resource::kStagedObject}) {
    std::vector<std::pair<std::string, std::uint64_t>> rows;
    for (std::size_t i = 0; i < owners.size(); ++i) {
      rows.emplace_back(owners[i],
                        r == audit::Resource::kProcessBytes ? 100 + i : i + 1);
    }
    std::sort(rows.begin(), rows.end());
    for (const auto& [owner, count] : rows) {
      want.push_back(std::string(audit::to_string(r)) + ": " +
                     std::to_string(count) + " outstanding (" + owner + ")");
    }
  }
  want.push_back("violation: double unlock");
  EXPECT_EQ(a.leaks(), want);
}

// An owner's slot points into the ledger that resolved it. reset() drops
// that ledger's entries, so the slot must be resolved again afterwards.
TEST(Auditor, OwnerSlotIsNotUsedAfterReset) {
  audit::Auditor a;
  audit::Owner owner("rank3/staging");
  const auto r = audit::Resource::kProcessBytes;
  a.acquire(r, owner, 10);
  a.reset();
  a.acquire(r, owner, 5);
  EXPECT_EQ(a.outstanding(r), 5u);
  EXPECT_EQ(a.leaks(), (std::vector<std::string>{
                           "process-bytes: 5 outstanding (rank3/staging)"}));
  a.release(r, owner, 5);
  EXPECT_TRUE(a.clean());
  a.reset();
  a.release(r, owner, 5);  // no entry since the reset: clamped to nothing
  EXPECT_TRUE(a.clean());
}

// A second Auditor built where the first one was (a sweep world reusing
// its storage) gets a new id, so a slot resolved under the first is not
// followed into freed memory.
TEST(Auditor, OwnerSlotIsNotUsedByANewAuditorAtTheSameAddress) {
  audit::Owner owner("ds-server-0");
  const auto r = audit::Resource::kStagedObject;
  std::optional<audit::Auditor> ledger;
  ledger.emplace();
  const audit::Auditor* first = &*ledger;
  {
    BindWorld bind({.auditor = &*ledger});
    audit::global().acquire(r, owner, 4);
    EXPECT_EQ(ledger->outstanding(r), 4u);
  }
  ledger.reset();
  ledger.emplace();
  ASSERT_EQ(&*ledger, first);
  {
    BindWorld bind({.auditor = &*ledger});
    audit::global().acquire(r, owner, 3);
    audit::global().release(r, owner, 1);
  }
  EXPECT_EQ(ledger->outstanding(r), 2u);
  EXPECT_EQ(ledger->leaks(),
            (std::vector<std::string>{
                "staged-objects: 2 outstanding (ds-server-0)"}));
}

// Two pools that tag their charges with equal owner text hold one slot
// each; both resolve to one ledger entry, so the report has one line with
// the sum, as it had when every charge was looked up by text.
TEST(Auditor, EqualOwnerTextFromTwoPoolsPrintsOneSummedLine) {
  audit::Auditor a;
  audit::Owner pool_a("rdma-transient");
  audit::Owner pool_b("rdma-transient");
  a.acquire(audit::Resource::kRdmaBytes, pool_a, 100);
  a.acquire(audit::Resource::kRdmaBytes, pool_b, 50);
  a.acquire(audit::Resource::kRdmaBytes, "rdma-transient", 7);
  EXPECT_EQ(a.leaks(), (std::vector<std::string>{
                           "rdma-bytes: 157 outstanding (rdma-transient)"}));
  a.release(audit::Resource::kRdmaBytes, pool_b, 150);
  a.release(audit::Resource::kRdmaBytes, pool_a, 7);
  EXPECT_TRUE(a.clean());
}

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = make_error(ErrorCode::kOutOfRdmaMemory, "1843 MB exceeded");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kOutOfRdmaMemory);
  EXPECT_EQ(s.to_string(), "OUT_OF_RDMA_MEMORY: 1843 MB exceeded");
}

TEST(Status, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    EXPECT_NE(to_string(static_cast<ErrorCode>(c)), "UNKNOWN");
  }
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().is_ok());
}

TEST(Result, HoldsError) {
  Result<int> r = make_error(ErrorCode::kNotFound, "no such var");
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.code(), ErrorCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Result, OkStatusNormalizedToInternalError) {
  Result<int> r = Status::ok();
  EXPECT_FALSE(r.has_value());
  EXPECT_EQ(r.code(), ErrorCode::kInternal);
}

TEST(Result, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.has_value());
  auto p = std::move(r).value();
  EXPECT_EQ(*p, 7);
}

TEST(Result, ValueOrMovesFromRvalueResult) {
  // The && overload must move the stored value, not copy it — this compiles
  // only if no copy is forced (unique_ptr is move-only).
  Result<std::unique_ptr<int>> r = std::make_unique<int>(11);
  std::unique_ptr<int> p = std::move(r).value_or(nullptr);
  ASSERT_TRUE(p);
  EXPECT_EQ(*p, 11);

  Result<std::unique_ptr<int>> err = make_error(ErrorCode::kNotFound, "gone");
  std::unique_ptr<int> q = std::move(err).value_or(std::make_unique<int>(3));
  ASSERT_TRUE(q);
  EXPECT_EQ(*q, 3);
}

TEST(Result, ValueOrConvertsFallbackWithoutTemporaryValue) {
  // The fallback is forwarded and converted, not materialised as T first.
  Result<std::string> r = make_error(ErrorCode::kTimeout, "late");
  EXPECT_EQ(r.value_or("fallback"), "fallback");
  Result<std::string> ok = std::string("kept");
  EXPECT_EQ(ok.value_or("fallback"), "kept");
}

TEST(Units, Constants) {
  EXPECT_EQ(kMiB, 1048576ull);
  EXPECT_EQ(kGiB, 1073741824ull);
  EXPECT_DOUBLE_EQ(kGB, 1e9);
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512.00 B");
  EXPECT_EQ(format_bytes(20.0 * kMiB), "20.00 MiB");
  EXPECT_EQ(format_bytes(1.5 * kGiB), "1.50 GiB");
}

TEST(Units, FormatBandwidth) {
  EXPECT_EQ(format_bandwidth(5.5e9), "5.50 GB/s");
  EXPECT_EQ(format_bandwidth(15.6e9), "15.60 GB/s");
}

TEST(Units, FormatTime) {
  EXPECT_EQ(format_time(1.5e-6), "1.50 us");
  EXPECT_EQ(format_time(0.25), "250.00 ms");
  EXPECT_EQ(format_time(12.0), "12.00 s");
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(99);
  for (int i = 0; i < 1000; ++i) {
    double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformRange) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    double d = r.uniform(2.0, 3.0);
    EXPECT_GE(d, 2.0);
    EXPECT_LT(d, 3.0);
  }
}

TEST(Rng, NextBelow) {
  Rng r(11);
  EXPECT_EQ(r.next_below(0), 0u);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, SplitMixAvalanche) {
  // Adjacent inputs must map to very different outputs.
  EXPECT_NE(splitmix64(1) >> 32, splitmix64(2) >> 32);
  EXPECT_NE(splitmix64(1) & 0xffffffff, splitmix64(2) & 0xffffffff);
}

TEST(Log, LevelGate) {
  LogLevel saved = log_level();
  set_log_level(LogLevel::kOff);
  IMC_ERROR() << "suppressed; must not crash";
  set_log_level(saved);
  SUCCEED();
}

}  // namespace
}  // namespace imc
