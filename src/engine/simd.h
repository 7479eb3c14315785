// Runtime-dispatched SIMD kernel for the hottest aggregation loop of the
// walk engine (DESIGN.md section 12): run-length encoding a sorted
// endpoint array into an empirical distribution.
//
// The kernel exists in two element-for-element identical variants: a
// portable scalar reference and an AVX2 implementation compiled with a
// per-function target attribute (no special translation-unit flags). The
// unsuffixed entry points dispatch once, at first call, on
// __builtin_cpu_supports("avx2"); on non-x86 builds (or hosts without
// AVX2) they are the scalar variant. Both variants are always linked so
// tests can assert exact equality between them on any host that has AVX2.
//
// Bit-identity: the AVX2 paths perform the same integer comparisons and
// the same double multiplications as the scalar code — no reassociation,
// no FMA contraction — so swapping variants can never change a query
// answer. tests/engine/simd_test.cc sweeps both variants (including every
// remainder-lane count) and fails on the first differing element.

#ifndef CLOUDWALKER_ENGINE_SIMD_H_
#define CLOUDWALKER_ENGINE_SIMD_H_

#include <cstdint>
#include <vector>

#include "common/sparse.h"
#include "graph/graph.h"

namespace cloudwalker {
namespace simd {

/// True when the host executes AVX2 (cached after the first call).
bool HaveAvx2();

/// "avx2" or "scalar" — what the dispatched entry points run. For bench
/// context and logs.
const char* ActiveLevel();

/// Run-length encodes the *sorted* array data[0, n) into entries:
/// one SparseEntry{id, multiplicity * inv_r} per distinct id, ascending.
/// Appends to `entries` (callers reserve). This is the aggregation loop
/// of AggregateEndpointNodes.
void AggregateSortedRuns(const NodeId* data, uint32_t n, double inv_r,
                         std::vector<SparseEntry>* entries);
void AggregateSortedRunsScalar(const NodeId* data, uint32_t n, double inv_r,
                               std::vector<SparseEntry>* entries);
/// AVX2 variant; falls back to scalar on builds without x86 intrinsics.
/// Callable on any host that HaveAvx2() reports true.
void AggregateSortedRunsAvx2(const NodeId* data, uint32_t n, double inv_r,
                             std::vector<SparseEntry>* entries);

}  // namespace simd
}  // namespace cloudwalker

#endif  // CLOUDWALKER_ENGINE_SIMD_H_
