#include "common/radix_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace cloudwalker {
namespace {

struct Rec {
  uint32_t key;
  uint32_t payload;  // input position: equal keys must keep its order

  bool operator==(const Rec& o) const {
    return key == o.key && payload == o.payload;
  }
};

bool KeyLess(const Rec& a, const Rec& b) { return a.key < b.key; }

// `n` records with keys below 2^bits, drawn from about n / 4 values so
// that keys repeat at every width (where stability shows), the largest
// key among them so every digit the width implies is exercised.
std::vector<Rec> RandomRecs(uint32_t n, uint32_t bits, Xoshiro256& rng) {
  const uint64_t bound = uint64_t{1} << bits;
  std::vector<uint32_t> pool(n / 4 + 1);
  for (uint32_t& key : pool) {
    key = static_cast<uint32_t>(rng.UniformInt(bound));
  }
  pool[0] = static_cast<uint32_t>(bound - 1);
  std::vector<Rec> recs(n);
  for (uint32_t i = 0; i < n; ++i) {
    recs[i] = Rec{pool[rng.UniformInt(pool.size())], i};
  }
  return recs;
}

TEST(SortByKeyTest, MatchesStableSortForEveryWidthAndLength) {
  Xoshiro256 rng(41);
  std::vector<Rec> tmp;
  for (uint32_t bits = 1; bits <= 32; ++bits) {
    for (const uint32_t n : {0u, 1u, 63u, 64u, 65u, 100u, 1000u, 5000u}) {
      SCOPED_TRACE(testing::Message() << "bits " << bits << " n " << n);
      std::vector<Rec> recs = RandomRecs(n, bits, rng);
      std::vector<Rec> want = recs;
      std::stable_sort(want.begin(), want.end(), KeyLess);
      const Rec* got = SortByKey(recs.data(), n, bits, tmp,
                                 [](const Rec& r) { return r.key; });
      for (uint32_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], want[i]) << "position " << i;
      }
    }
  }
}

TEST(RadixPassesTest, MinimisesCountersPlusScatters) {
  // p * (2 * 2^ceil(bits / p) + 2n) over p in [ceil(bits / 11), 4].
  EXPECT_EQ(RadixPasses(100, 13), 3u);   // 3 x 32 counters
  EXPECT_EQ(RadixPasses(600, 13), 2u);   // 2 x 128: an index row's sort
  EXPECT_EQ(RadixPasses(1000, 18), 2u);  // 2 x 512
  EXPECT_EQ(RadixPasses(1000, 22), 3u);  // 3 x 256
  EXPECT_EQ(RadixPasses(100, 22), 4u);   // 4 x 64
  EXPECT_EQ(RadixPasses(1u << 20, 8), 1u);
  EXPECT_EQ(RadixPasses(1u << 20, 32), 3u);
  for (uint32_t bits = 1; bits <= 32; ++bits) {
    for (const uint32_t n : {64u, 1000u, 100000u}) {
      const uint32_t p = RadixPasses(n, bits);
      const uint32_t digit = (bits + p - 1) / p;
      EXPECT_LE(p, kMaxRadixPasses) << bits << " bits, n " << n;
      EXPECT_LE(digit, kMaxRadixBits) << bits << " bits, n " << n;
      // No pass sorts on bits above the key.
      EXPECT_LT((p - 1) * digit, bits) << bits << " bits, n " << n;
    }
  }
}

}  // namespace
}  // namespace cloudwalker
