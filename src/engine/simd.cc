#include "engine/simd.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define CLOUDWALKER_SIMD_X86 1
#endif

namespace cloudwalker {
namespace simd {

bool HaveAvx2() {
#ifdef CLOUDWALKER_SIMD_X86
  static const bool have = __builtin_cpu_supports("avx2");
  return have;
#else
  return false;
#endif
}

const char* ActiveLevel() { return HaveAvx2() ? "avx2" : "scalar"; }

void AggregateSortedRunsScalar(const NodeId* data, uint32_t n, double inv_r,
                               std::vector<SparseEntry>* entries) {
  if (n == 0) return;
  uint32_t run_begin = 0;
  for (uint32_t i = 1; i <= n; ++i) {
    if (i == n || data[i] != data[run_begin]) {
      entries->push_back(SparseEntry{
          data[run_begin], static_cast<double>(i - run_begin) * inv_r});
      run_begin = i;
    }
  }
}

#ifdef CLOUDWALKER_SIMD_X86

// Compares each adjacent pair of 8 sorted elements at once: a whole block
// inside one run (the common case for skewed endpoint distributions —
// hub nodes accumulate long runs) advances with a single compare +
// movemask instead of 8 predicted branches. Run boundaries within a block
// are recovered bit-by-bit with tzcnt. The emitted entries are the exact
// sequence the scalar loop produces: boundaries are visited in ascending
// order and multiplicities are computed from the same indices.
__attribute__((target("avx2"))) void AggregateSortedRunsAvx2(
    const NodeId* data, uint32_t n, double inv_r,
    std::vector<SparseEntry>* entries) {
  if (n == 0) return;
  uint32_t run_begin = 0;
  uint32_t i = 0;  // next boundary to examine is (i, i + 1)
  while (i + 9 <= n) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i + 1));
    uint32_t neq = ~static_cast<uint32_t>(_mm256_movemask_ps(
                       _mm256_castsi256_ps(_mm256_cmpeq_epi32(a, b)))) &
                   0xffu;
    while (neq != 0) {
      const uint32_t k = static_cast<uint32_t>(__builtin_ctz(neq));
      neq &= neq - 1;
      const uint32_t end = i + k + 1;  // data[end - 1] != data[end]
      entries->push_back(SparseEntry{
          data[run_begin], static_cast<double>(end - run_begin) * inv_r});
      run_begin = end;
    }
    i += 8;
  }
  for (uint32_t j = i + 1; j <= n; ++j) {
    if (j == n || data[j] != data[j - 1]) {
      entries->push_back(SparseEntry{
          data[run_begin], static_cast<double>(j - run_begin) * inv_r});
      run_begin = j;
    }
  }
}

#else  // !CLOUDWALKER_SIMD_X86

void AggregateSortedRunsAvx2(const NodeId* data, uint32_t n, double inv_r,
                             std::vector<SparseEntry>* entries) {
  AggregateSortedRunsScalar(data, n, inv_r, entries);
}

#endif  // CLOUDWALKER_SIMD_X86

void AggregateSortedRuns(const NodeId* data, uint32_t n, double inv_r,
                         std::vector<SparseEntry>* entries) {
  if (HaveAvx2()) {
    AggregateSortedRunsAvx2(data, n, inv_r, entries);
  } else {
    AggregateSortedRunsScalar(data, n, inv_r, entries);
  }
}

}  // namespace simd
}  // namespace cloudwalker
