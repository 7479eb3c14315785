#include "common/sparse.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/radix_sort.h"

namespace cloudwalker {

SparseVector SparseVector::FromSorted(std::vector<SparseEntry> entries) {
#ifndef NDEBUG
  for (size_t i = 1; i < entries.size(); ++i) {
    CW_DCHECK(entries[i - 1].index < entries[i].index)
        << "FromSorted requires strictly increasing indices";
  }
#endif
  SparseVector v;
  v.entries_ = std::move(entries);
  return v;
}

double SparseVector::Get(uint32_t index) const {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), index,
                             [](const SparseEntry& e, uint32_t idx) {
                               return e.index < idx;
                             });
  if (it != entries_.end() && it->index == index) return it->value;
  return 0.0;
}

double SparseVector::Sum() const {
  double s = 0.0;
  for (const auto& e : entries_) s += e.value;
  return s;
}

double SparseVector::SumSquares() const {
  double s = 0.0;
  for (const auto& e : entries_) s += e.value * e.value;
  return s;
}

void SparseVector::Normalize() {
  const double s = Sum();
  if (s == 0.0) return;
  for (auto& e : entries_) e.value /= s;
}

void SparseVector::Scale(double factor) {
  for (auto& e : entries_) e.value *= factor;
}

void SparseVector::Prune(double threshold) {
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [threshold](const SparseEntry& e) {
                                  return std::fabs(e.value) < threshold;
                                }),
                 entries_.end());
}

double SparseVector::Dot(const SparseVector& a, const SparseVector& b) {
  double s = 0.0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].index < b[j].index) {
      ++i;
    } else if (a[i].index > b[j].index) {
      ++j;
    } else {
      s += a[i].value * b[j].value;
      ++i;
      ++j;
    }
  }
  return s;
}

double SparseVector::DotWeighted(const SparseVector& a, const SparseVector& b,
                                 std::span<const double> diag) {
  // The merge runs branch-free, a chunk at a time: each step records its
  // position pair, keeps it only when the two indices match, and advances
  // the side holding the smaller index (both on a match). A chunk takes
  // no more steps than the shorter remainder, so neither side runs out
  // inside it. The kept matches are then summed in index order, the order
  // a branching merge meets them in.
  constexpr size_t kChunk = 128;
  uint32_t match_a[kChunk];
  uint32_t match_b[kChunk];
  const SparseEntry* const ea = a.entries_.data();
  const SparseEntry* const eb = b.entries_.data();
  const size_t na = a.size();
  const size_t nb = b.size();
  double s = 0.0;
  size_t i = 0, j = 0;
  while (i < na && j < nb) {
    const size_t steps = std::min({kChunk, na - i, nb - j});
    size_t m = 0;
    for (size_t step = 0; step < steps; ++step) {
      const uint32_t ka = ea[i].index;
      const uint32_t kb = eb[j].index;
      match_a[m] = static_cast<uint32_t>(i);
      match_b[m] = static_cast<uint32_t>(j);
      m += ka == kb;
      i += ka <= kb;
      j += kb <= ka;
    }
    for (size_t k = 0; k < m; ++k) {
      const SparseEntry& x = ea[match_a[k]];
      CW_DCHECK(x.index < diag.size());
      s += x.value * eb[match_b[k]].value * diag[x.index];
    }
  }
  return s;
}

SparseVector SparseVector::Axpy(const SparseVector& a, double alpha,
                                const SparseVector& b) {
  std::vector<SparseEntry> out;
  out.reserve(a.size() + b.size());
  size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    if (j >= b.size() || (i < a.size() && a[i].index < b[j].index)) {
      out.push_back(a[i++]);
    } else if (i >= a.size() || b[j].index < a[i].index) {
      out.push_back(SparseEntry{b[j].index, alpha * b[j].value});
      ++j;
    } else {
      out.push_back(SparseEntry{a[i].index, a[i].value + alpha * b[j].value});
      ++i;
      ++j;
    }
  }
  return SparseVector::FromSorted(std::move(out));
}

SparseVector SumByIndex(std::vector<SparseEntry>& records, uint32_t key_bits,
                        std::vector<SparseEntry>& sort_buffer) {
  const uint32_t n = static_cast<uint32_t>(records.size());
  const SparseEntry* const sorted =
      SortByKey(records.data(), n, key_bits, sort_buffer,
                [](const SparseEntry& e) { return e.index; });
  uint32_t distinct = 0;
  for (uint32_t i = 0; i < n; ++i) {
    distinct += i == 0 || sorted[i].index != sorted[i - 1].index;
  }
  std::vector<SparseEntry> entries;
  entries.reserve(distinct);
  for (uint32_t i = 0; i < n;) {
    const uint32_t index = sorted[i].index;
    double sum = 0.0;  // as the accumulator's slot starts
    for (; i < n && sorted[i].index == index; ++i) sum += sorted[i].value;
    entries.push_back(SparseEntry{index, sum});
  }
  return SparseVector::FromSorted(std::move(entries));
}

namespace {

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

inline size_t HashKey(uint32_t key) {
  // Fibonacci hashing; good spread for sequential node ids.
  uint64_t h = static_cast<uint64_t>(key) * 0x9e3779b97f4a7c15ULL;
  return static_cast<size_t>(h >> 32);
}

}  // namespace

SparseAccumulator::SparseAccumulator(size_t expected) {
  const size_t cap = NextPowerOfTwo(std::max<size_t>(16, expected * 2));
  keys_.assign(cap, kEmpty);
  values_.assign(cap, 0.0);
  mask_ = cap - 1;
}

size_t SparseAccumulator::Probe(uint32_t key) const {
  size_t i = HashKey(key) & mask_;
  while (keys_[i] != kEmpty && keys_[i] != key) i = (i + 1) & mask_;
  return i;
}

void SparseAccumulator::Add(uint32_t index, double value) {
  CW_DCHECK(index != kEmpty) << "index 0xffffffff is reserved";
  size_t i = Probe(index);
  if (keys_[i] == kEmpty) {
    if ((used_.size() + 1) * 10 >= keys_.size() * 7) {  // load factor 0.7
      Rehash(keys_.size() * 2);
      i = Probe(index);
    }
    keys_[i] = index;
    values_[i] = 0.0;  // a sum from 0.0: an added -0.0 reads +0.0
    used_.push_back(static_cast<uint32_t>(i));
  }
  values_[i] += value;
}

double SparseAccumulator::Get(uint32_t index) const {
  const size_t i = Probe(index);
  return keys_[i] == index ? values_[i] : 0.0;
}

void SparseAccumulator::Clear() {
  for (const uint32_t slot : used_) keys_[slot] = kEmpty;
  used_.clear();
}

void SparseAccumulator::Rehash(size_t new_capacity) {
  std::vector<uint32_t> old_keys = std::move(keys_);
  std::vector<double> old_values = std::move(values_);
  keys_.assign(new_capacity, kEmpty);
  values_.assign(new_capacity, 0.0);
  mask_ = new_capacity - 1;
  for (uint32_t& slot : used_) {
    const size_t j = Probe(old_keys[slot]);
    keys_[j] = old_keys[slot];
    values_[j] = old_values[slot];
    slot = static_cast<uint32_t>(j);
  }
}

SparseVector SparseAccumulator::ToSortedVector() const {
  std::vector<SparseEntry> entries;
  entries.reserve(used_.size());
  uint32_t max_key = 0;
  ForEach([&entries, &max_key](uint32_t k, double v) {
    entries.push_back(SparseEntry{k, v});
    max_key = std::max(max_key, k);
  });
  // Keys are distinct, so the sorted order is unique.
  const auto by_index = [](const SparseEntry& e) { return e.index; };
  const uint32_t n = static_cast<uint32_t>(entries.size());
  const uint32_t bits = KeyBits(max_key);
  std::vector<SparseEntry> tmp;
  const SparseEntry* sorted = SortByKey(entries.data(), n, bits, tmp, by_index);
  if (sorted != entries.data()) entries.swap(tmp);
  return SparseVector::FromSorted(std::move(entries));
}

}  // namespace cloudwalker
