// Tests for strategy files (wire/snapshot_store.h): a saved strategy is
// exactly its EncodeStrategy bytes, round-trips bit for bit with one or
// several Kronecker factors, is written atomically, and loads only when it
// is intact and still a valid strategy for the budget it records — so a
// tampered file cannot silently load as a weaker-than-advertised mechanism.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "mechanisms/randomized_response.h"
#include "wire/byte_order.h"
#include "wire/snapshot_store.h"
#include "wire/wire_format.h"

namespace wfm {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

WireBytes ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return WireBytes((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const WireBytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

StrategySnapshot OneFactor(double eps) {
  StrategySnapshot s;
  s.version = 2;
  s.epsilon = eps;
  s.strategy = {{RandomizedResponseMechanism::BuildStrategy(6, eps)}, {eps}};
  return s;
}

// Prefix(4) ⊗ Histogram(2)-shaped: two RR factors splitting ε = 1.
StrategySnapshot TwoFactors() {
  StrategySnapshot s;
  s.version = 1;
  s.epsilon = 1.0;
  s.strategy = {{RandomizedResponseMechanism::BuildStrategy(4, 0.5),
                 RandomizedResponseMechanism::BuildStrategy(2, 0.5)},
                {0.5, 0.5}};
  return s;
}

void ExpectBitIdentical(const StrategySnapshot& got,
                        const StrategySnapshot& want) {
  EXPECT_EQ(got.version, want.version);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.epsilon),
            std::bit_cast<std::uint64_t>(want.epsilon));
  ASSERT_EQ(got.strategy.factors.size(), want.strategy.factors.size());
  for (std::size_t i = 0; i < want.strategy.factors.size(); ++i) {
    const Matrix& g = got.strategy.factors[i];
    const Matrix& w = want.strategy.factors[i];
    ASSERT_EQ(g.rows(), w.rows());
    ASSERT_EQ(g.cols(), w.cols());
    for (std::size_t j = 0; j < w.size(); ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(g.data()[j]),
                std::bit_cast<std::uint64_t>(w.data()[j]))
          << "factor " << i << " entry " << j;
    }
    EXPECT_EQ(got.strategy.epsilons[i], want.strategy.epsilons[i]);
  }
}

TEST(StrategyFileTest, RoundTripsOneAndTwoFactorsBitForBit) {
  for (const StrategySnapshot& saved : {OneFactor(1.5), TwoFactors()}) {
    const std::string path = TempPath("strategy.wfm_strategy");
    ASSERT_TRUE(SaveStrategyFile(path, saved).ok());
    // The file is the wire encoding, byte for byte.
    EXPECT_EQ(ReadBytes(path), EncodeStrategy(saved));
    const StatusOr<StrategySnapshot> loaded = LoadStrategyFile(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectBitIdentical(loaded.value(), saved);
    std::remove(path.c_str());
  }
}

TEST(StrategyFileTest, SaveLeavesNoTempFileBehind) {
  const std::string path = TempPath("atomic.wfm_strategy");
  ASSERT_TRUE(SaveStrategyFile(path, TwoFactors()).ok());
  // Overwriting goes through the same temp file and rename.
  ASSERT_TRUE(SaveStrategyFile(path, OneFactor(1.0)).ok());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(StrategyFileTest, RefusesToSaveAnInvalidStrategy) {
  StrategySnapshot s = OneFactor(2.0);
  s.epsilon = 1.0;  // The factor is 2-LDP, not 1-LDP.
  s.strategy.epsilons = {1.0};
  const std::string path = TempPath("invalid.wfm_strategy");
  const Status saved = SaveStrategyFile(path, s);
  EXPECT_EQ(saved.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(StrategyFileTest, RejectsARewrittenEpsilonWithItsCrcRestamped) {
  const std::string path = TempPath("tampered.wfm_strategy");
  ASSERT_TRUE(SaveStrategyFile(path, OneFactor(1.0)).ok());
  // Claim ε = 0.5 for a 1-LDP matrix and restamp the CRC, so the file is
  // structurally intact: loading must still fail rather than weaken the
  // guarantee silently.
  WireBytes bytes = ReadBytes(path);
  StoreU64(&bytes[kWireHeaderBytes + 8], std::bit_cast<std::uint64_t>(0.5));
  StoreU32(&bytes[bytes.size() - 4],
           WireCrc32(std::span<const std::uint8_t>(bytes.data(),
                                                   bytes.size() - 4)));
  WriteBytes(path, bytes);
  const StatusOr<StrategySnapshot> loaded = LoadStrategyFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(StrategyFileTest, RejectsEveryFlippedByte) {
  const std::string path = TempPath("flipped.wfm_strategy");
  ASSERT_TRUE(SaveStrategyFile(path, TwoFactors()).ok());
  const WireBytes good = ReadBytes(path);
  for (std::size_t i = 0; i < good.size(); ++i) {
    WireBytes bytes = good;
    bytes[i] ^= 0x01;
    WriteBytes(path, bytes);
    EXPECT_EQ(LoadStrategyFile(path).status().code(),
              StatusCode::kInvalidArgument)
        << "byte " << i;
  }
  std::remove(path.c_str());
}

TEST(StrategyFileTest, MissingFileIsNotFoundAndGarbageIsInvalid) {
  EXPECT_EQ(LoadStrategyFile("/nonexistent/strategy").status().code(),
            StatusCode::kNotFound);
  const std::string path = TempPath("garbage.wfm_strategy");
  std::ofstream(path) << "not a strategy\n";
  EXPECT_EQ(LoadStrategyFile(path).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wfm
