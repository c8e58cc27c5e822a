// Tests for the ECC-spare-bit metadata codec (paper §4): Hamming correction,
// widened-parity double-bit detection, and metadata coexistence.
#include <gtest/gtest.h>

#include <array>
#include <cstring>

#include "src/common/random.h"
#include "src/dram/ecc_metadata.h"

namespace kvd {
namespace {

std::array<uint8_t, 64> PatternLine(uint64_t seed) {
  std::array<uint8_t, 64> data;
  Rng rng(seed);
  for (auto& byte : data) {
    byte = static_cast<uint8_t>(rng.Next());
  }
  return data;
}

TEST(HammingTest, CleanWordDecodesClean) {
  Rng rng(1);
  for (int trial = 0; trial < 1000; trial++) {
    uint64_t data = rng.Next();
    uint8_t check = HammingEncode(data);
    const uint64_t original = data;
    EXPECT_EQ(HammingDecode(data, check), EccDecodeStatus::kClean);
    EXPECT_EQ(data, original);
  }
}

TEST(HammingTest, EverySingleDataBitFlipCorrects) {
  const uint64_t original = 0xdeadbeefcafef00dull;
  const uint8_t original_check = HammingEncode(original);
  for (int bit = 0; bit < 64; bit++) {
    uint64_t data = original ^ (uint64_t{1} << bit);
    uint8_t check = original_check;
    EXPECT_EQ(HammingDecode(data, check), EccDecodeStatus::kCorrectedSingle) << bit;
    EXPECT_EQ(data, original) << bit;
    EXPECT_EQ(check, original_check) << bit;
  }
}

TEST(HammingTest, EverySingleCheckBitFlipCorrects) {
  const uint64_t original = 0x0123456789abcdefull;
  const uint8_t original_check = HammingEncode(original);
  for (int bit = 0; bit < 7; bit++) {
    uint64_t data = original;
    uint8_t check = original_check ^ static_cast<uint8_t>(1u << bit);
    EXPECT_EQ(HammingDecode(data, check), EccDecodeStatus::kCorrectedSingle) << bit;
    EXPECT_EQ(data, original) << bit;
    EXPECT_EQ(check, original_check) << bit;
  }
}

TEST(EccLineTest, MetadataRoundTripsForAllValues) {
  const auto data = PatternLine(7);
  for (uint8_t tag = 0; tag < 16; tag++) {
    for (bool dirty : {false, true}) {
      EccLine line = EncodeLine(data, LineMetadata{tag, dirty});
      std::array<uint8_t, 64> out;
      const LineDecodeResult result = DecodeLine(line, out);
      EXPECT_EQ(result.status, EccDecodeStatus::kClean);
      EXPECT_FALSE(result.double_error_detected);
      EXPECT_EQ(result.metadata, (LineMetadata{tag, dirty}));
      EXPECT_EQ(std::memcmp(out.data(), data.data(), 64), 0);
    }
  }
}

TEST(EccLineTest, SingleBitErrorAnywhereCorrectsAndKeepsMetadata) {
  const auto data = PatternLine(11);
  const LineMetadata metadata{0xA, true};
  Rng rng(3);
  for (int trial = 0; trial < 512; trial++) {
    EccLine line = EncodeLine(data, metadata);
    const int bit = static_cast<int>(rng.NextBelow(512));  // any data bit
    line.words[bit / 64] ^= uint64_t{1} << (bit % 64);
    std::array<uint8_t, 64> out;
    const LineDecodeResult result = DecodeLine(line, out);
    EXPECT_EQ(result.status, EccDecodeStatus::kCorrectedSingle);
    EXPECT_EQ(result.corrected_words, 1);
    EXPECT_FALSE(result.double_error_detected);
    EXPECT_EQ(std::memcmp(out.data(), data.data(), 64), 0);
    EXPECT_EQ(result.metadata, metadata);
  }
}

TEST(EccLineTest, DoubleBitErrorInOneWordIsDetectedNotMiscorrected) {
  const auto data = PatternLine(13);
  Rng rng(5);
  int detected = 0;
  constexpr int kTrials = 512;
  for (int trial = 0; trial < kTrials; trial++) {
    EccLine line = EncodeLine(data, LineMetadata{3, false});
    const int word = static_cast<int>(rng.NextBelow(8));
    const int bit_a = static_cast<int>(rng.NextBelow(64));
    int bit_b = static_cast<int>(rng.NextBelow(64));
    while (bit_b == bit_a) {
      bit_b = static_cast<int>(rng.NextBelow(64));
    }
    line.words[word] ^= uint64_t{1} << bit_a;
    line.words[word] ^= uint64_t{1} << bit_b;
    std::array<uint8_t, 64> out;
    const LineDecodeResult result = DecodeLine(line, out);
    detected += result.double_error_detected ? 1 : 0;
    // Crucially: the decoder must NOT claim a clean single-bit repair.
    EXPECT_NE(result.status, EccDecodeStatus::kClean);
  }
  EXPECT_EQ(detected, kTrials);  // SECDED: every double detected
}

TEST(EccLineTest, SingleErrorsInBothGroupsCorrectIndependently) {
  const auto data = PatternLine(17);
  EccLine line = EncodeLine(data, LineMetadata{5, true});
  line.words[1] ^= uint64_t{1} << 20;  // group 0
  line.words[6] ^= uint64_t{1} << 41;  // group 1
  std::array<uint8_t, 64> out;
  const LineDecodeResult result = DecodeLine(line, out);
  EXPECT_EQ(result.corrected_words, 2);
  EXPECT_FALSE(result.double_error_detected);
  EXPECT_EQ(std::memcmp(out.data(), data.data(), 64), 0);
  EXPECT_EQ(result.metadata, (LineMetadata{5, true}));
}

// The paper's arithmetic: 8 x 8 ECC bits, minus 8 x 7 Hamming, minus 2 group
// parity = 6 free bits >= 5 metadata bits. The layout constants must respect
// that budget.
TEST(EccLineTest, BitBudgetMatchesPaper) {
  EXPECT_EQ(kTagBitsFirstWord + 4, kDirtyBitWord);
  EXPECT_LT(kSpareBitWord, 8);
  // 2 parity + 4 tag + 1 dirty + 1 spare = the 8 repurposed MSBs.
  EXPECT_EQ(2 + 4 + 1 + 1, 8);
}

}  // namespace
}  // namespace kvd
