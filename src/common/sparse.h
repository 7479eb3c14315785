// Sparse vector primitives used throughout the walk and indexing kernels.
//
// SparseVector   — immutable-ish sorted (index, value) array with vector ops.
// SumByIndex     — folds appended (index, value) records into a SparseVector
//                  with one stable sort and a run-length sum.
// SparseAccumulator — open-addressing uint32 -> double map for producers
//                     that emit many records per distinct key and merge
//                     them in place.

#ifndef CLOUDWALKER_COMMON_SPARSE_H_
#define CLOUDWALKER_COMMON_SPARSE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace cloudwalker {

/// One non-zero of a sparse vector.
struct SparseEntry {
  uint32_t index;
  double value;

  bool operator==(const SparseEntry& o) const {
    return index == o.index && value == o.value;
  }
};

/// Sorted sparse vector over uint32 indices.
class SparseVector {
 public:
  SparseVector() = default;

  /// Wraps entries that are already sorted by index with no duplicates.
  /// CW_DCHECKs the precondition in debug builds.
  static SparseVector FromSorted(std::vector<SparseEntry> entries);

  /// Number of stored non-zeros.
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  const SparseEntry& operator[](size_t i) const { return entries_[i]; }
  std::vector<SparseEntry>::const_iterator begin() const {
    return entries_.begin();
  }
  std::vector<SparseEntry>::const_iterator end() const {
    return entries_.end();
  }

  /// Value at `index` (0.0 when absent); O(log nnz).
  double Get(uint32_t index) const;

  /// Sum of values.
  double Sum() const;

  /// Sum of squared values.
  double SumSquares() const;

  /// L1-normalizes in place; no-op if the vector sums to 0.
  void Normalize();

  /// Multiplies every value by `factor`.
  void Scale(double factor);

  /// Drops entries with |value| < threshold.
  void Prune(double threshold);

  /// Sparse dot product, O(nnz_a + nnz_b).
  static double Dot(const SparseVector& a, const SparseVector& b);

  /// Dot product with a per-index diagonal weight:
  /// sum_k a[k] * b[k] * diag[k]. `diag` is dense, indexed by entry index.
  /// A branch-free merge finds the common indices; their terms are then
  /// summed from 0.0 in index order.
  static double DotWeighted(const SparseVector& a, const SparseVector& b,
                            std::span<const double> diag);

  /// a + alpha * b, returned as a new sorted vector.
  static SparseVector Axpy(const SparseVector& a, double alpha,
                           const SparseVector& b);

  /// Access to the underlying storage (sorted by index).
  const std::vector<SparseEntry>& entries() const { return entries_; }

 private:
  std::vector<SparseEntry> entries_;
};

/// Sums `records` by index into a sorted SparseVector, exactly as a
/// SparseAccumulator fed the same records in the same order would: one
/// stable SortByKey (common/radix_sort.h) orders the records by index,
/// keeping each index's records in input order, and each run of one
/// index is summed from 0.0 in that order (so a lone -0.0 reads +0.0).
/// Every index must be below 2^key_bits. Leaves `records` in unspecified
/// order; `sort_buffer` is the sort's scratch, grown as needed and kept
/// for reuse. Cheaper than the accumulator while the records fit in L2,
/// as a pruned MCSS push step's or a visit sum's do.
SparseVector SumByIndex(std::vector<SparseEntry>& records, uint32_t key_bits,
                        std::vector<SparseEntry>& sort_buffer);

/// Open-addressing hash accumulator for uint32 keys and double values.
/// Linear probing, power-of-two capacity, tombstone-free (no deletion).
/// ~2x faster than std::unordered_map for the walk-counting workload and
/// reusable across batches via Clear(). A list of the occupied slots makes
/// Clear, ForEach and ToSortedVector cost O(entries), not O(capacity), so
/// a table presized for the largest batch drains small ones cheaply.
/// Each key's sum adds its values in call order. It merges records in
/// place, so it suits producers that emit more records than a sort keeps
/// in cache, such as an unpruned MCSS push step (Σ|Out(k)| records a
/// level); below that, SumByIndex's one sort is cheaper.
class SparseAccumulator {
 public:
  /// `expected` sizes the table to hold that many distinct keys without
  /// rehashing.
  explicit SparseAccumulator(size_t expected = 16);

  /// Adds `value` to the accumulator slot for `index`.
  void Add(uint32_t index, double value);

  /// Value currently accumulated at `index` (0.0 when absent).
  double Get(uint32_t index) const;

  /// Number of distinct keys present.
  size_t size() const { return used_.size(); }

  /// Removes all entries but keeps the capacity.
  void Clear();

  /// Drains the contents into a sorted SparseVector.
  SparseVector ToSortedVector() const;

  /// Invokes fn(index, value) for every entry, in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const uint32_t slot : used_) fn(keys_[slot], values_[slot]);
  }

 private:
  static constexpr uint32_t kEmpty = 0xffffffffu;

  void Rehash(size_t new_capacity);
  size_t Probe(uint32_t key) const;

  std::vector<uint32_t> keys_;
  std::vector<double> values_;  // read at occupied slots only
  std::vector<uint32_t> used_;  // occupied slots, in insertion order
  size_t mask_ = 0;
};

}  // namespace cloudwalker

#endif  // CLOUDWALKER_COMMON_SPARSE_H_
