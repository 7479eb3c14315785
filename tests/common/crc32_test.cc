#include "common/crc32.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace cloudwalker {
namespace {

// The byte-at-a-time CRC-32 (reflected 0xEDB88320, inverted in and out):
// the definition the sliced kernel must reproduce bit for bit.
uint32_t ReferenceCrc32(const unsigned char* p, size_t size,
                        uint32_t seed = 0) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

std::vector<unsigned char> RandomBytes(size_t n, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<unsigned char> bytes(n);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng.Next());
  return bytes;
}

TEST(Crc32Test, StandardCheckValue) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32Test, EmptyInputIsZeroAndKeepsTheSeed) {
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  EXPECT_EQ(Crc32(nullptr, 0, 0x12345678u), 0x12345678u);
}

// Every length across the 16-byte step and the tail, at every alignment,
// fresh and continued from a seed.
TEST(Crc32Test, MatchesByteReferenceAtEveryLengthAndOffset) {
  constexpr size_t kMaxLength = 300;
  constexpr size_t kOffsets = 16;
  const std::vector<unsigned char> bytes =
      RandomBytes(kMaxLength + kOffsets, /*seed=*/23);
  for (size_t offset = 0; offset < kOffsets; ++offset) {
    for (size_t length = 0; length <= kMaxLength; ++length) {
      const unsigned char* p = bytes.data() + offset;
      ASSERT_EQ(Crc32(p, length), ReferenceCrc32(p, length))
          << "offset " << offset << " length " << length;
      ASSERT_EQ(Crc32(p, length, 0xdeadbeefu),
                ReferenceCrc32(p, length, 0xdeadbeefu))
          << "seeded, offset " << offset << " length " << length;
    }
  }
}

// One 16-byte step with a single nonzero byte reads exactly one entry of
// the table for that byte's position: all 16 x 256 entries are checked.
TEST(Crc32Test, EveryBytePositionAndValueOfOneStep) {
  for (size_t position = 0; position < 16; ++position) {
    for (uint32_t value = 0; value < 256; ++value) {
      std::array<unsigned char, 16> step{};
      step[position] = static_cast<unsigned char>(value);
      ASSERT_EQ(Crc32(step.data(), step.size()),
                ReferenceCrc32(step.data(), step.size()))
          << "position " << position << " value " << value;
    }
  }
}

TEST(Crc32Test, SplitAtEveryPointAndContinuedThroughSeedEqualsOneShot) {
  const std::vector<unsigned char> bytes = RandomBytes(257, /*seed=*/5);
  const uint32_t whole = Crc32(bytes.data(), bytes.size());
  EXPECT_EQ(whole, ReferenceCrc32(bytes.data(), bytes.size()));
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const uint32_t head = Crc32(bytes.data(), split);
    EXPECT_EQ(Crc32(bytes.data() + split, bytes.size() - split, head), whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace cloudwalker
