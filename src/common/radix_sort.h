// The one sort behind every sorted drain: the walk kernel's per-level
// endpoint aggregation, the sharded / threaded / socket / out-of-core
// endpoint merges (AggregateEndpointNodes), and SparseAccumulator's
// ToSortedVector (DESIGN.md section 8).

#ifndef CLOUDWALKER_COMMON_RADIX_SORT_H_
#define CLOUDWALKER_COMMON_RADIX_SORT_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace cloudwalker {

// 11-bit digits: one counting pass covers 2048 keys, two cover 4.2M-node
// graphs, three cover the full 32-bit key space. The counter array stays
// L1 resident (8 KB).
inline constexpr uint32_t kRadixBits = 11;
inline constexpr uint32_t kRadixBuckets = 1u << kRadixBits;

// Below this many elements a comparison sort beats zeroing the radix
// counters.
inline constexpr uint32_t kSmallSortCutoff = 64;

/// Bits needed to represent every key in [0, max_key] (at least 1).
inline uint32_t KeyBits(uint32_t max_key) {
  return std::max<uint32_t>(1, std::bit_width(max_key));
}

/// Sorts a[0, n) ascending by key(a[i]), a uint32_t below 2^key_bits, and
/// returns the sorted data, which lives in either `a` or `tmp`. Short
/// inputs take a comparison sort; longer ones an LSD radix sort that
/// grows `tmp` to n. Elements with equal keys may come out in either
/// order, so the result is unique only when equal keys mean equal
/// elements.
template <typename T, typename KeyFn>
T* SortByKey(T* a, uint32_t n, uint32_t key_bits, std::vector<T>& tmp,
             KeyFn key) {
  if (n < kSmallSortCutoff) {
    std::ranges::sort(a, a + n, {}, key);
    return a;
  }
  if (tmp.size() < n) tmp.resize(n);
  uint32_t counts[kRadixBuckets];
  T* in = a;
  T* out = tmp.data();
  for (uint32_t shift = 0; shift < key_bits; shift += kRadixBits) {
    std::fill(counts, counts + kRadixBuckets, 0u);
    for (uint32_t i = 0; i < n; ++i) {
      ++counts[(key(in[i]) >> shift) & (kRadixBuckets - 1)];
    }
    uint32_t running = 0;
    for (uint32_t b = 0; b < kRadixBuckets; ++b) {
      const uint32_t c = counts[b];
      counts[b] = running;
      running += c;
    }
    for (uint32_t i = 0; i < n; ++i) {
      out[counts[(key(in[i]) >> shift) & (kRadixBuckets - 1)]++] = in[i];
    }
    std::swap(in, out);
  }
  return in;
}

}  // namespace cloudwalker

#endif  // CLOUDWALKER_COMMON_RADIX_SORT_H_
