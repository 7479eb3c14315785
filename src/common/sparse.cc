#include "common/sparse.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/radix_sort.h"

namespace cloudwalker {

SparseVector SparseVector::FromUnsorted(std::vector<SparseEntry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const SparseEntry& a, const SparseEntry& b) {
              return a.index < b.index;
            });
  // Merge duplicates in place.
  size_t out = 0;
  for (size_t i = 0; i < entries.size();) {
    uint32_t idx = entries[i].index;
    double sum = 0.0;
    while (i < entries.size() && entries[i].index == idx) {
      sum += entries[i].value;
      ++i;
    }
    entries[out++] = SparseEntry{idx, sum};
  }
  entries.resize(out);
  SparseVector v;
  v.entries_ = std::move(entries);
  return v;
}

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
  double s = 0.0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].index < b[j].index) {
      ++i;
    } else if (a[i].index > b[j].index) {
      ++j;
    } else {
      CW_DCHECK(a[i].index < diag.size());
      s += a[i].value * b[j].value * diag[a[i].index];
      ++i;
      ++j;
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
