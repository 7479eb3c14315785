#include "common/sparse.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/radix_sort.h"
#include "common/random.h"

namespace cloudwalker {
namespace {

TEST(SparseVectorTest, EmptyByDefault) {
  SparseVector v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.Sum(), 0.0);
  EXPECT_EQ(v.Get(3), 0.0);
}

TEST(SparseVectorTest, GetMissingIsZero) {
  SparseVector v = SparseVector::FromSorted({{1, 1.0}, {9, 2.0}});
  EXPECT_EQ(v.Get(0), 0.0);
  EXPECT_EQ(v.Get(5), 0.0);
  EXPECT_EQ(v.Get(10), 0.0);
  EXPECT_DOUBLE_EQ(v.Get(9), 2.0);
}

TEST(SparseVectorTest, SumAndSumSquares) {
  SparseVector v = SparseVector::FromSorted({{0, 1.0}, {1, 2.0}, {2, 3.0}});
  EXPECT_DOUBLE_EQ(v.Sum(), 6.0);
  EXPECT_DOUBLE_EQ(v.SumSquares(), 14.0);
}

TEST(SparseVectorTest, NormalizeMakesSumOne) {
  SparseVector v = SparseVector::FromSorted({{0, 1.0}, {1, 3.0}});
  v.Normalize();
  EXPECT_DOUBLE_EQ(v.Sum(), 1.0);
  EXPECT_DOUBLE_EQ(v.Get(1), 0.75);
}

TEST(SparseVectorTest, NormalizeZeroVectorIsNoop) {
  SparseVector v = SparseVector::FromSorted({{0, 0.0}});
  v.Normalize();
  EXPECT_EQ(v.Get(0), 0.0);
}

TEST(SparseVectorTest, Scale) {
  SparseVector v = SparseVector::FromSorted({{0, 2.0}, {4, -1.0}});
  v.Scale(0.5);
  EXPECT_DOUBLE_EQ(v.Get(0), 1.0);
  EXPECT_DOUBLE_EQ(v.Get(4), -0.5);
}

TEST(SparseVectorTest, PruneDropsSmallMagnitudes) {
  SparseVector v =
      SparseVector::FromSorted({{0, 0.001}, {1, -0.5}, {2, 0.0001}});
  v.Prune(0.01);
  EXPECT_EQ(v.size(), 1u);
  EXPECT_DOUBLE_EQ(v.Get(1), -0.5);
}

TEST(SparseVectorTest, DotDisjointIsZero) {
  SparseVector a = SparseVector::FromSorted({{0, 1.0}, {2, 1.0}});
  SparseVector b = SparseVector::FromSorted({{1, 1.0}, {3, 1.0}});
  EXPECT_EQ(SparseVector::Dot(a, b), 0.0);
}

TEST(SparseVectorTest, DotOverlapping) {
  SparseVector a = SparseVector::FromSorted({{0, 1.0}, {2, 2.0}, {5, 3.0}});
  SparseVector b = SparseVector::FromSorted({{2, 4.0}, {5, 1.0}, {7, 9.0}});
  EXPECT_DOUBLE_EQ(SparseVector::Dot(a, b), 8.0 + 3.0);
}

TEST(SparseVectorTest, DotWeighted) {
  SparseVector a = SparseVector::FromSorted({{0, 1.0}, {2, 2.0}});
  SparseVector b = SparseVector::FromSorted({{0, 3.0}, {2, 5.0}});
  const std::vector<double> diag = {2.0, 0.0, 0.5};
  EXPECT_DOUBLE_EQ(SparseVector::DotWeighted(a, b, diag), 6.0 + 5.0);
}

TEST(SparseVectorTest, AxpyMergesAndScales) {
  SparseVector a = SparseVector::FromSorted({{0, 1.0}, {2, 2.0}});
  SparseVector b = SparseVector::FromSorted({{2, 1.0}, {3, 4.0}});
  SparseVector r = SparseVector::Axpy(a, 0.5, b);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_DOUBLE_EQ(r.Get(0), 1.0);
  EXPECT_DOUBLE_EQ(r.Get(2), 2.5);
  EXPECT_DOUBLE_EQ(r.Get(3), 2.0);
}

TEST(SparseVectorTest, AxpyWithEmpty) {
  SparseVector a;
  SparseVector b = SparseVector::FromSorted({{1, 2.0}});
  SparseVector r = SparseVector::Axpy(a, 3.0, b);
  EXPECT_DOUBLE_EQ(r.Get(1), 6.0);
  SparseVector r2 = SparseVector::Axpy(b, 3.0, a);
  EXPECT_DOUBLE_EQ(r2.Get(1), 2.0);
}

TEST(SparseAccumulatorTest, StartsEmpty) {
  SparseAccumulator acc;
  EXPECT_EQ(acc.size(), 0u);
  EXPECT_EQ(acc.Get(0), 0.0);
}

TEST(SparseAccumulatorTest, AddAccumulates) {
  SparseAccumulator acc;
  acc.Add(7, 1.5);
  acc.Add(7, 2.5);
  acc.Add(3, 1.0);
  EXPECT_EQ(acc.size(), 2u);
  EXPECT_DOUBLE_EQ(acc.Get(7), 4.0);
  EXPECT_DOUBLE_EQ(acc.Get(3), 1.0);
}

TEST(SparseAccumulatorTest, ClearKeepsCapacityDropsEntries) {
  SparseAccumulator acc(4);
  for (uint32_t i = 0; i < 100; ++i) acc.Add(i, 1.0);
  EXPECT_EQ(acc.size(), 100u);
  acc.Clear();
  EXPECT_EQ(acc.size(), 0u);
  EXPECT_EQ(acc.Get(50), 0.0);
  acc.Add(5, 2.0);
  EXPECT_DOUBLE_EQ(acc.Get(5), 2.0);
}

TEST(SparseAccumulatorTest, GrowsBeyondInitialCapacity) {
  SparseAccumulator acc(2);
  const uint32_t n = 10000;
  for (uint32_t i = 0; i < n; ++i) acc.Add(i * 3, 1.0);
  EXPECT_EQ(acc.size(), n);
  for (uint32_t i = 0; i < n; i += 997) {
    EXPECT_DOUBLE_EQ(acc.Get(i * 3), 1.0);
  }
}

TEST(SparseAccumulatorTest, ToSortedVectorIsSortedAndComplete) {
  SparseAccumulator acc;
  Xoshiro256 rng(3);
  std::vector<double> dense(500, 0.0);
  for (int i = 0; i < 2000; ++i) {
    const uint32_t idx = rng.UniformInt32(500);
    acc.Add(idx, 0.25);
    dense[idx] += 0.25;
  }
  const SparseVector v = acc.ToSortedVector();
  EXPECT_EQ(v.size(), acc.size());
  for (size_t i = 1; i < v.size(); ++i) {
    EXPECT_LT(v[i - 1].index, v[i].index);
  }
  for (const SparseEntry& e : v) {
    EXPECT_DOUBLE_EQ(e.value, dense[e.index]);
  }
}

// Adds `n` distinct keys in [0, max_key] with random values; max_key itself
// is always one of them, so the drain needs every radix digit it implies.
void FillDistinct(SparseAccumulator& acc, uint32_t n, uint32_t max_key,
                  Xoshiro256& rng) {
  if (n == 0) return;
  acc.Add(max_key, rng.NextDouble());
  while (acc.size() < n) {
    acc.Add(static_cast<uint32_t>(rng.UniformInt(uint64_t{max_key} + 1)),
            rng.NextDouble());
  }
}

// ToSortedVector must return exactly what std::sort makes of the same
// entries: same order, same value bits.
void ExpectDrainMatchesStdSort(const SparseAccumulator& acc) {
  std::vector<SparseEntry> want;
  acc.ForEach([&want](uint32_t k, double v) {
    want.push_back(SparseEntry{k, v});
  });
  std::sort(want.begin(), want.end(),
            [](const SparseEntry& a, const SparseEntry& b) {
              return a.index < b.index;
            });
  const SparseVector got = acc.ToSortedVector();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "entry " << i;
  }
}

TEST(SparseAccumulatorTest, ToSortedVectorMatchesStdSort) {
  Xoshiro256 rng(29);
  // One, two and three radix digits; 0xffffffff is the reserved key.
  for (const uint32_t max_key : {2047u, 200000u, 0xfffffffeu}) {
    for (const uint32_t n : {0u, 1u, 63u, 64u, 65u, 5000u}) {
      if (n > uint64_t{max_key} + 1) continue;
      SCOPED_TRACE(testing::Message() << "max_key " << max_key << " n " << n);
      SparseAccumulator acc(n);
      FillDistinct(acc, n, max_key, rng);
      ASSERT_EQ(acc.size(), n);
      ExpectDrainMatchesStdSort(acc);
    }
  }
}

TEST(SparseAccumulatorTest, ToSortedVectorMatchesStdSortAfterClear) {
  Xoshiro256 rng(31);
  SparseAccumulator acc(5000);
  FillDistinct(acc, 5000, 0xfffffffeu, rng);
  ExpectDrainMatchesStdSort(acc);
  acc.Clear();
  FillDistinct(acc, 65, 4095, rng);
  ASSERT_EQ(acc.size(), 65u);
  ExpectDrainMatchesStdSort(acc);
}

TEST(SparseAccumulatorTest, ToSortedVectorMatchesStdSortAfterRehash) {
  Xoshiro256 rng(37);
  SparseAccumulator acc(2);  // 16 slots: 5000 keys rehash nine times
  FillDistinct(acc, 5000, 0xfffffffeu, rng);
  ExpectDrainMatchesStdSort(acc);
}

// Terms whose sum's bits depend on their order: from the left,
// 1e16 + 1 + 1 - 1e16 is 0 (each 1 rounds away) where 1 + 1 first would
// leave 2, and 0.0 + -0.0 is +0.0, not -0.0.
std::vector<double> OrderSensitiveTerms(uint32_t key, Xoshiro256& rng) {
  if (key % 5 == 0) return {-0.0};
  return {1e16, 1.0, 1.0, -1e16, rng.NextDouble()};
}

// Adds each key's terms, the keys interleaved at random but every key's
// terms in order, and expects every key to hold exactly — bit for bit —
// its terms summed from 0.0 in call order, and no other key to exist.
void ExpectCallOrderSums(SparseAccumulator& acc,
                         const std::vector<uint32_t>& keys, Xoshiro256& rng) {
  std::vector<std::vector<double>> terms;
  std::vector<size_t> next(keys.size(), 0);
  std::vector<size_t> open;  // keys with terms left
  for (size_t i = 0; i < keys.size(); ++i) {
    terms.push_back(OrderSensitiveTerms(keys[i], rng));
    open.push_back(i);
  }
  std::map<uint32_t, double> want;
  while (!open.empty()) {
    const size_t pick = rng.UniformInt(open.size());
    const size_t i = open[pick];
    const double term = terms[i][next[i]++];
    acc.Add(keys[i], term);
    want[keys[i]] += term;
    if (next[i] == terms[i].size()) {
      open[pick] = open.back();
      open.pop_back();
    }
  }
  const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  const SparseVector got = acc.ToSortedVector();
  ASSERT_EQ(got.size(), want.size());
  size_t e = 0;
  for (const auto& [key, sum] : want) {
    EXPECT_EQ(got[e].index, key);
    EXPECT_EQ(bits(got[e].value), bits(sum)) << "key " << key;
    EXPECT_EQ(bits(acc.Get(key)), bits(sum)) << "key " << key;
    ++e;
  }
  size_t visited = 0;
  acc.ForEach([&](uint32_t key, double value) {
    ++visited;
    ASSERT_EQ(want.count(key), 1u) << "key " << key;
    EXPECT_EQ(bits(value), bits(want[key])) << "key " << key;
  });
  EXPECT_EQ(visited, want.size());
}

TEST(SparseAccumulatorTest, ReuseKeepsEachKeysSumInCallOrder) {
  Xoshiro256 rng(41);
  SparseAccumulator acc(2);  // 16 slots: rehashes land mid-sequence
  std::vector<uint32_t> keys;
  for (uint32_t i = 0; i < 600; ++i) keys.push_back(i * 7919u);
  ExpectCallOrderSums(acc, keys, rng);

  acc.Clear();
  EXPECT_EQ(acc.size(), 0u);
  EXPECT_TRUE(acc.ToSortedVector().empty());
  EXPECT_EQ(acc.Get(keys[1]), 0.0);
  size_t visited = 0;
  acc.ForEach([&visited](uint32_t, double) { ++visited; });
  EXPECT_EQ(visited, 0u);

  // The grown table is reused: half the keys return and half are new, so
  // a value left behind at a cleared slot would show in a sum.
  std::vector<uint32_t> reused(keys.begin(), keys.begin() + 300);
  for (uint32_t i = 0; i < 300; ++i) reused.push_back(5000000u + i);
  ExpectCallOrderSums(acc, reused, rng);
}

TEST(SparseAccumulatorTest, ForEachVisitsEveryEntryOnce) {
  SparseAccumulator acc;
  acc.Add(1, 1.0);
  acc.Add(2, 2.0);
  acc.Add(4, 4.0);
  double sum = 0.0;
  size_t count = 0;
  acc.ForEach([&](uint32_t, double v) {
    sum += v;
    ++count;
  });
  EXPECT_EQ(count, 3u);
  EXPECT_DOUBLE_EQ(sum, 7.0);
}

TEST(SparseAccumulatorTest, CollidingKeysStayDistinct) {
  // Keys chosen to collide in a small table (same low bits).
  SparseAccumulator acc(4);
  acc.Add(0, 1.0);
  acc.Add(16, 2.0);
  acc.Add(32, 3.0);
  acc.Add(48, 4.0);
  EXPECT_DOUBLE_EQ(acc.Get(0), 1.0);
  EXPECT_DOUBLE_EQ(acc.Get(16), 2.0);
  EXPECT_DOUBLE_EQ(acc.Get(32), 3.0);
  EXPECT_DOUBLE_EQ(acc.Get(48), 4.0);
}

TEST(SparseAccumulatorTest, NegativeValuesSupported) {
  SparseAccumulator acc;
  acc.Add(2, 5.0);
  acc.Add(2, -3.0);
  EXPECT_DOUBLE_EQ(acc.Get(2), 2.0);
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Expects `got` to hold exactly `want`'s indices and value bits.
void ExpectSameBits(const SparseVector& got, const SparseVector& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].index, want[i].index) << "entry " << i;
    ASSERT_EQ(Bits(got[i].value), Bits(want[i].value))
        << "entry " << i << " index " << want[i].index;
  }
}

// A term whose sums with its neighbours round differently in a different
// order: mixed signs over sixteen decades.
double MixedTerm(Xoshiro256& rng) {
  const double magnitude = std::pow(10.0, rng.UniformInt32(17)) * 1e-8;
  return (rng.NextDouble() - 0.5) * magnitude;
}

// `n` records over keys drawn below 2^key_bits, the largest such key
// always among them, each key repeated 1-4 times, interleaved at random.
std::vector<SparseEntry> RepeatedRecords(uint32_t n, uint32_t key_bits,
                                         Xoshiro256& rng) {
  const uint64_t limit = uint64_t{1} << key_bits;
  // 0xffffffff is the accumulator's reserved key.
  const uint32_t max_key = static_cast<uint32_t>(
      std::min<uint64_t>(limit - 1, 0xfffffffeu));
  std::vector<SparseEntry> records;
  std::set<uint32_t> used;
  while (records.size() < n) {
    const uint32_t key =
        used.empty() ? max_key
                     : static_cast<uint32_t>(rng.UniformInt(max_key + 1ull));
    if (!used.insert(key).second) continue;
    const uint32_t repeats = 1 + rng.UniformInt32(4);
    for (uint32_t r = 0; r < repeats && records.size() < n; ++r) {
      records.push_back(SparseEntry{key, MixedTerm(rng)});
    }
  }
  for (uint32_t i = n; i > 1; --i) {
    std::swap(records[i - 1], records[rng.UniformInt32(i)]);
  }
  return records;
}

// SumByIndex must give, bit for bit, what the accumulator gives for the
// same records in the same order.
void ExpectSumMatchesAccumulator(const std::vector<SparseEntry>& records,
                                 uint32_t key_bits,
                                 std::vector<SparseEntry>& sort_buffer) {
  SparseAccumulator acc;
  for (const SparseEntry& r : records) acc.Add(r.index, r.value);
  std::vector<SparseEntry> copy = records;
  ExpectSameBits(SumByIndex(copy, key_bits, sort_buffer),
                 acc.ToSortedVector());
}

TEST(SumByIndexTest, SortsByIndex) {
  std::vector<SparseEntry> records = {{5, 1.0}, {1, 2.0}, {3, 3.0}};
  std::vector<SparseEntry> sort_buffer;
  const SparseVector v = SumByIndex(records, 3, sort_buffer);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0].index, 1u);
  EXPECT_EQ(v[1].index, 3u);
  EXPECT_EQ(v[2].index, 5u);
}

TEST(SumByIndexTest, MergesDuplicates) {
  std::vector<SparseEntry> records = {{2, 1.0}, {2, 2.5}, {1, 1.0}, {2, 0.5}};
  std::vector<SparseEntry> sort_buffer;
  const SparseVector v = SumByIndex(records, 2, sort_buffer);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(v.Get(2), 4.0);
  EXPECT_DOUBLE_EQ(v.Get(1), 1.0);
}

TEST(SumByIndexTest, MatchesAccumulatorBitForBit) {
  Xoshiro256 rng(43);
  std::vector<SparseEntry> sort_buffer;  // reused across every call
  // One, two and three radix digits; 32 bits puts keys on the top bit.
  for (const uint32_t key_bits : {11u, 18u, 32u}) {
    for (const uint32_t n : {0u, 1u, 63u, 64u, 65u, 5000u}) {
      SCOPED_TRACE(testing::Message() << "key_bits " << key_bits << " n "
                                      << n);
      ExpectSumMatchesAccumulator(RepeatedRecords(n, key_bits, rng),
                                  key_bits, sort_buffer);
    }
  }
}

// The accumulator sums from 0.0, so a key whose only term is -0.0 reads
// +0.0; a sum seeded with its first term would keep -0.0.
TEST(SumByIndexTest, LoneNegativeZeroReadsPositiveZero) {
  std::vector<SparseEntry> sort_buffer;
  std::vector<SparseEntry> records = {{5, 1.0}, {3, -0.0}, {5, -0.0}};
  ExpectSumMatchesAccumulator(records, 3, sort_buffer);
  const SparseVector got = SumByIndex(records, 3, sort_buffer);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].index, 3u);
  EXPECT_EQ(Bits(got[0].value), Bits(0.0));
  EXPECT_EQ(Bits(got[1].value), Bits(1.0));
}

// Each key's terms keep their input order through the sort: from the left
// 1e16 + 1 + 1 - 1e16 is 0, where any order that adds the 1s together
// first leaves 2.
TEST(SumByIndexTest, EachKeySumsInInputOrder) {
  Xoshiro256 rng(53);
  for (const uint32_t keys : {10u, 2000u}) {  // insertion sort, radix
    std::vector<SparseEntry> records;
    for (uint32_t k = 0; k < keys; ++k) {
      for (const double v : {1e16, 1.0, 1.0, -1e16}) {
        records.push_back(SparseEntry{k * 3, v});
      }
    }
    // Shuffle the keys apart while each key's terms keep their order.
    std::vector<SparseEntry> interleaved;
    std::vector<size_t> next(keys, 0);
    std::vector<uint32_t> open(keys);
    for (uint32_t k = 0; k < keys; ++k) open[k] = k;
    while (!open.empty()) {
      const uint32_t pick = rng.UniformInt32(open.size());
      const uint32_t k = open[pick];
      interleaved.push_back(records[4 * k + next[k]++]);
      if (next[k] == 4) {
        open[pick] = open.back();
        open.pop_back();
      }
    }
    std::vector<SparseEntry> sort_buffer;
    ExpectSumMatchesAccumulator(interleaved, KeyBits(3 * keys), sort_buffer);
    const SparseVector got = SumByIndex(interleaved, KeyBits(3 * keys),
                                        sort_buffer);
    ASSERT_EQ(got.size(), keys);
    for (const SparseEntry& e : got) {
      ASSERT_EQ(Bits(e.value), Bits(0.0)) << "key " << e.index;
    }
  }
}

// The merge DotWeighted ran before it went branch-free: the reference for
// which matches it finds and the order it sums them in.
double BranchyDotWeighted(const SparseVector& a, const SparseVector& b,
                          const std::vector<double>& diag) {
  double s = 0.0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].index < b[j].index) {
      ++i;
    } else if (a[i].index > b[j].index) {
      ++j;
    } else {
      s += a[i].value * b[j].value * diag[a[i].index];
      ++i;
      ++j;
    }
  }
  return s;
}

// `n` distinct sorted indices below `universe`, with mixed-sign values.
SparseVector RandomSparse(uint32_t n, uint32_t universe, Xoshiro256& rng) {
  std::map<uint32_t, double> entries;
  while (entries.size() < n) {
    entries[rng.UniformInt32(universe)] = MixedTerm(rng);
  }
  std::vector<SparseEntry> out;
  for (const auto& [index, value] : entries) {
    out.push_back(SparseEntry{index, value});
  }
  return SparseVector::FromSorted(std::move(out));
}

void ExpectDotMatchesBranchy(const SparseVector& a, const SparseVector& b,
                             const std::vector<double>& diag) {
  EXPECT_EQ(Bits(SparseVector::DotWeighted(a, b, diag)),
            Bits(BranchyDotWeighted(a, b, diag)));
  EXPECT_EQ(Bits(SparseVector::DotWeighted(b, a, diag)),
            Bits(BranchyDotWeighted(b, a, diag)));
}

TEST(DotWeightedTest, MatchesBranchyMergeBitForBit) {
  Xoshiro256 rng(59);
  constexpr uint32_t kUniverse = 4096;
  std::vector<double> diag(kUniverse);
  for (double& d : diag) d = 0.4 + 0.6 * rng.NextDouble();
  const SparseVector empty;

  // Disjoint: even against odd indices, so every step misses.
  std::vector<SparseEntry> even, odd;
  for (uint32_t k = 0; k < 1000; ++k) {
    even.push_back(SparseEntry{2 * k, MixedTerm(rng)});
    odd.push_back(SparseEntry{2 * k + 1, MixedTerm(rng)});
  }
  const SparseVector a = SparseVector::FromSorted(even);
  const SparseVector b = SparseVector::FromSorted(odd);
  ExpectDotMatchesBranchy(a, b, diag);
  EXPECT_EQ(Bits(SparseVector::DotWeighted(a, b, diag)), Bits(0.0));

  // Identical: every step matches.
  ExpectDotMatchesBranchy(a, a, diag);
  ExpectDotMatchesBranchy(b, b, diag);

  // One side empty.
  ExpectDotMatchesBranchy(a, empty, diag);
  ExpectDotMatchesBranchy(empty, empty, diag);
  EXPECT_EQ(Bits(SparseVector::DotWeighted(empty, a, diag)), Bits(0.0));

  // Unequal tails: a short side that ends early, late or in the middle,
  // against a long one.
  for (const uint32_t shift : {0u, 2000u, 3500u}) {
    std::vector<SparseEntry> tail;
    for (uint32_t k = 0; k < 40; ++k) {
      tail.push_back(SparseEntry{shift + 3 * k, MixedTerm(rng)});
    }
    ExpectDotMatchesBranchy(SparseVector::FromSorted(tail), a, diag);
  }

  // Random partial overlaps of many sizes, across the chunk boundary.
  for (const uint32_t na : {1u, 7u, 127u, 128u, 129u, 1000u, 3000u}) {
    for (const uint32_t nb : {1u, 200u, 1500u}) {
      SCOPED_TRACE(testing::Message() << "na " << na << " nb " << nb);
      ExpectDotMatchesBranchy(RandomSparse(na, kUniverse, rng),
                              RandomSparse(nb, kUniverse, rng), diag);
    }
  }
}

// Property sweep: accumulator agrees with a dense reference across sizes.
class SparseAccumulatorPropertyTest
    : public ::testing::TestWithParam<uint32_t> {};

TEST_P(SparseAccumulatorPropertyTest, MatchesDenseReference) {
  const uint32_t universe = GetParam();
  SparseAccumulator acc(8);
  std::vector<double> dense(universe, 0.0);
  Xoshiro256 rng(universe);
  for (int i = 0; i < 5000; ++i) {
    const uint32_t idx = rng.UniformInt32(universe);
    const double val = rng.NextDouble() - 0.5;
    acc.Add(idx, val);
    dense[idx] += val;
  }
  size_t nonzero_entries = 0;
  for (uint32_t i = 0; i < universe; ++i) {
    EXPECT_NEAR(acc.Get(i), dense[i], 1e-12);
    // Every touched key must be present (even if it sums to ~0).
  }
  acc.ForEach([&](uint32_t k, double v) {
    EXPECT_LT(k, universe);
    EXPECT_NEAR(v, dense[k], 1e-12);
    ++nonzero_entries;
  });
  EXPECT_EQ(nonzero_entries, acc.size());
}

INSTANTIATE_TEST_SUITE_P(Universes, SparseAccumulatorPropertyTest,
                         ::testing::Values(1u, 2u, 17u, 256u, 5000u));

}  // namespace
}  // namespace cloudwalker
