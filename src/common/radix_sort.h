// The one sort behind every sorted drain: the walk kernel's per-level
// endpoint aggregation, the sharded / threaded / socket / out-of-core
// endpoint merges (AggregateEndpointNodes), SumByIndex's record fold
// (the MCSS push steps of at most 16k records, node2vec's visit sum),
// SparseAccumulator's ToSortedVector, and the indexer's one sort per row
// (DESIGN.md section 8).

#ifndef CLOUDWALKER_COMMON_RADIX_SORT_H_
#define CLOUDWALKER_COMMON_RADIX_SORT_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace cloudwalker {

// Digits are at most 11 bits wide, so the counter array stays L1 resident
// (8 KB) and three passes cover the full 32-bit key space; no input takes
// more than four passes.
inline constexpr uint32_t kMaxRadixBits = 11;
inline constexpr uint32_t kMaxRadixPasses = 4;

// Below this many elements an insertion sort beats zeroing the radix
// counters.
inline constexpr uint32_t kSmallSortCutoff = 64;

/// Bits needed to represent every key in [0, max_key] (at least 1).
inline uint32_t KeyBits(uint32_t max_key) {
  return std::max<uint32_t>(1, std::bit_width(max_key));
}

/// The LSD pass count for n keys below 2^key_bits: the p from
/// ceil(key_bits / 11) to 4 that minimises p * (2 * 2^ceil(key_bits / p)
/// + 2n) — each pass zeroes and prefix-sums its counters, then counts and
/// scatters the n keys. Ties take fewer passes.
inline uint32_t RadixPasses(uint32_t n, uint32_t key_bits) {
  const uint32_t fewest =
      std::max(1u, (key_bits + kMaxRadixBits - 1) / kMaxRadixBits);
  uint32_t best = fewest;
  uint64_t best_cost = UINT64_MAX;
  for (uint32_t p = fewest; p <= kMaxRadixPasses; ++p) {
    const uint32_t digit_bits = (key_bits + p - 1) / p;
    const uint64_t cost =
        p * ((uint64_t{2} << digit_bits) + 2 * static_cast<uint64_t>(n));
    if (cost < best_cost) {
      best = p;
      best_cost = cost;
    }
  }
  return best;
}

/// Sorts a[0, n) ascending by key(a[i]), a uint32_t below 2^key_bits, and
/// returns the sorted data, which lives in either `a` or `tmp`. Stable:
/// elements with equal keys keep their input order. Short inputs take an
/// insertion sort; longer ones RadixPasses(n, key_bits) LSD counting
/// passes of equal-width digits that grow `tmp` to n.
template <typename T, typename KeyFn>
T* SortByKey(T* a, uint32_t n, uint32_t key_bits, std::vector<T>& tmp,
             KeyFn key) {
  if (n < kSmallSortCutoff) {
    for (uint32_t i = 1; i < n; ++i) {
      const T v = a[i];
      const uint32_t k = key(v);
      uint32_t j = i;
      for (; j > 0 && key(a[j - 1]) > k; --j) a[j] = a[j - 1];
      a[j] = v;
    }
    return a;
  }
  if (tmp.size() < n) tmp.resize(n);
  const uint32_t passes = RadixPasses(n, key_bits);
  const uint32_t digit_bits = (key_bits + passes - 1) / passes;
  const uint32_t buckets = 1u << digit_bits;
  uint32_t counts[1u << kMaxRadixBits];
  T* in = a;
  T* out = tmp.data();
  for (uint32_t pass = 0; pass < passes; ++pass) {
    const uint32_t shift = pass * digit_bits;
    std::fill(counts, counts + buckets, 0u);
    for (uint32_t i = 0; i < n; ++i) {
      ++counts[(key(in[i]) >> shift) & (buckets - 1)];
    }
    uint32_t running = 0;
    for (uint32_t b = 0; b < buckets; ++b) {
      const uint32_t c = counts[b];
      counts[b] = running;
      running += c;
    }
    for (uint32_t i = 0; i < n; ++i) {
      out[counts[(key(in[i]) >> shift) & (buckets - 1)]++] = in[i];
    }
    std::swap(in, out);
  }
  return in;
}

}  // namespace cloudwalker

#endif  // CLOUDWALKER_COMMON_RADIX_SORT_H_
