#include "sparse/csc.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

namespace mfgpu {

namespace {

constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a_bytes(const void* data, std::size_t len,
                          std::uint64_t hash) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
  return hash;
}

template <typename T>
std::uint64_t fnv1a_span(std::span<const T> values,
                         std::uint64_t hash) noexcept {
  return fnv1a_bytes(values.data(), values.size() * sizeof(T), hash);
}

}  // namespace

SparseSpd::SparseSpd(index_t n, std::vector<index_t> col_ptr,
                     std::vector<index_t> row_idx, std::vector<double> values)
    : n_(n),
      col_ptr_(std::move(col_ptr)),
      row_idx_(std::move(row_idx)),
      values_(std::move(values)) {
  MFGPU_CHECK(static_cast<index_t>(col_ptr_.size()) == n_ + 1,
              "SparseSpd: col_ptr size must be n+1");
  MFGPU_CHECK(row_idx_.size() == values_.size(),
              "SparseSpd: row/value size mismatch");
  MFGPU_CHECK(col_ptr_.front() == 0 &&
                  col_ptr_.back() == static_cast<index_t>(row_idx_.size()),
              "SparseSpd: invalid col_ptr bounds");
  for (index_t j = 0; j < n_; ++j) {
    const auto rows = column_rows(j);
    MFGPU_CHECK(!rows.empty() && rows.front() == j,
                "SparseSpd: first entry of each column must be the diagonal");
    for (std::size_t t = 1; t < rows.size(); ++t) {
      MFGPU_CHECK(rows[t] > rows[t - 1] && rows[t] < n_,
                  "SparseSpd: rows must be sorted, unique, in range");
    }
  }
}

std::span<const index_t> SparseSpd::column_rows(index_t j) const {
  const auto begin = static_cast<std::size_t>(col_ptr_[static_cast<std::size_t>(j)]);
  const auto end = static_cast<std::size_t>(col_ptr_[static_cast<std::size_t>(j) + 1]);
  return {row_idx_.data() + begin, row_idx_.data() + end};
}

std::span<const double> SparseSpd::column_values(index_t j) const {
  const auto begin = static_cast<std::size_t>(col_ptr_[static_cast<std::size_t>(j)]);
  const auto end = static_cast<std::size_t>(col_ptr_[static_cast<std::size_t>(j) + 1]);
  return {values_.data() + begin, values_.data() + end};
}

void SparseSpd::multiply(std::span<const double> x, std::span<double> y) const {
  MFGPU_CHECK(static_cast<index_t>(x.size()) == n_ &&
                  static_cast<index_t>(y.size()) == n_,
              "SparseSpd::multiply: size mismatch");
  std::fill(y.begin(), y.end(), 0.0);
  for (index_t j = 0; j < n_; ++j) {
    const auto rows = column_rows(j);
    const auto vals = column_values(j);
    const double xj = x[static_cast<std::size_t>(j)];
    // Diagonal entry contributes once; off-diagonals act on both triangles.
    y[static_cast<std::size_t>(j)] += vals[0] * xj;
    for (std::size_t t = 1; t < rows.size(); ++t) {
      const auto i = static_cast<std::size_t>(rows[t]);
      y[i] += vals[t] * xj;
      y[static_cast<std::size_t>(j)] += vals[t] * x[i];
    }
  }
}

SparseSpd SparseSpd::permuted(std::span<const index_t> new_of_old,
                              std::vector<index_t>* value_source) const {
  MFGPU_CHECK(static_cast<index_t>(new_of_old.size()) == n_,
              "SparseSpd::permuted: permutation size mismatch");
  // Count entries per new column (entry lands in the lower triangle of the
  // permuted matrix: column = min(new_i, new_j)).
  std::vector<index_t> count(static_cast<std::size_t>(n_) + 1, 0);
  for (index_t j = 0; j < n_; ++j) {
    const auto rows = column_rows(j);
    const index_t nj = new_of_old[static_cast<std::size_t>(j)];
    for (index_t i : rows) {
      const index_t ni = new_of_old[static_cast<std::size_t>(i)];
      ++count[static_cast<std::size_t>(std::min(ni, nj)) + 1];
    }
  }
  std::partial_sum(count.begin(), count.end(), count.begin());

  // Scatter (row, source entry) pairs into their new columns, then sort
  // each column by row (rows are unique within a column) and gather values.
  std::vector<index_t> col_ptr = count;
  std::vector<index_t> row_idx(row_idx_.size());
  std::vector<index_t> source(row_idx_.size());
  std::vector<index_t> next(count.begin(), count.end() - 1);
  for (index_t j = 0; j < n_; ++j) {
    const index_t nj = new_of_old[static_cast<std::size_t>(j)];
    for (index_t p = col_ptr_[static_cast<std::size_t>(j)];
         p < col_ptr_[static_cast<std::size_t>(j) + 1]; ++p) {
      const index_t ni =
          new_of_old[static_cast<std::size_t>(row_idx_[static_cast<std::size_t>(p)])];
      const auto slot = static_cast<std::size_t>(
          next[static_cast<std::size_t>(std::min(ni, nj))]++);
      row_idx[slot] = std::max(ni, nj);
      source[slot] = p;
    }
  }
  std::vector<std::pair<index_t, index_t>> column;
  for (index_t j = 0; j < n_; ++j) {
    const auto begin = static_cast<std::size_t>(col_ptr[static_cast<std::size_t>(j)]);
    const auto end = static_cast<std::size_t>(col_ptr[static_cast<std::size_t>(j) + 1]);
    column.clear();
    for (std::size_t t = begin; t < end; ++t) {
      column.emplace_back(row_idx[t], source[t]);
    }
    std::sort(column.begin(), column.end());
    for (std::size_t t = begin; t < end; ++t) {
      row_idx[t] = column[t - begin].first;
      source[t] = column[t - begin].second;
    }
  }
  std::vector<double> values(source.size());
  for (std::size_t t = 0; t < source.size(); ++t) {
    values[t] = values_[static_cast<std::size_t>(source[t])];
  }
  if (value_source != nullptr) *value_source = std::move(source);
  return SparseSpd(n_, std::move(col_ptr), std::move(row_idx),
                   std::move(values));
}

void SparseSpd::gather_values(std::span<const double> from,
                              std::span<const index_t> value_source) {
  MFGPU_CHECK(value_source.size() == values_.size(),
              "SparseSpd::gather_values: map size mismatch");
  for (std::size_t t = 0; t < values_.size(); ++t) {
    const auto p = static_cast<std::size_t>(value_source[t]);
    MFGPU_CHECK(p < from.size(), "SparseSpd::gather_values: map out of range");
    values_[t] = from[p];
  }
}

std::uint64_t SparseSpd::pattern_fingerprint() const noexcept {
  std::uint64_t hash = kFnvOffsetBasis;
  hash = fnv1a_bytes(&n_, sizeof(n_), hash);
  hash = fnv1a_span<index_t>(col_ptr_, hash);
  hash = fnv1a_span<index_t>(row_idx_, hash);
  return hash;
}

std::uint64_t SparseSpd::values_fingerprint() const noexcept {
  return fnv1a_span<double>(values_, kFnvOffsetBasis);
}

SymmetricGraph build_graph(const SparseSpd& a) {
  SymmetricGraph g;
  g.n = a.n();
  g.ptr.assign(static_cast<std::size_t>(g.n) + 1, 0);
  for (index_t j = 0; j < g.n; ++j) {
    const auto rows = a.column_rows(j);
    for (std::size_t t = 1; t < rows.size(); ++t) {  // skip the diagonal
      ++g.ptr[static_cast<std::size_t>(j) + 1];
      ++g.ptr[static_cast<std::size_t>(rows[t]) + 1];
    }
  }
  std::partial_sum(g.ptr.begin(), g.ptr.end(), g.ptr.begin());
  g.adj.resize(static_cast<std::size_t>(g.ptr.back()));
  std::vector<index_t> next(g.ptr.begin(), g.ptr.end() - 1);
  for (index_t j = 0; j < g.n; ++j) {
    const auto rows = a.column_rows(j);
    for (std::size_t t = 1; t < rows.size(); ++t) {
      const index_t i = rows[t];
      g.adj[static_cast<std::size_t>(next[static_cast<std::size_t>(j)]++)] = i;
      g.adj[static_cast<std::size_t>(next[static_cast<std::size_t>(i)]++)] = j;
    }
  }
  for (index_t v = 0; v < g.n; ++v) {
    auto begin = g.adj.begin() + g.ptr[static_cast<std::size_t>(v)];
    auto end = g.adj.begin() + g.ptr[static_cast<std::size_t>(v) + 1];
    std::sort(begin, end);
  }
  return g;
}

}  // namespace mfgpu
