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
  const auto n = static_cast<std::size_t>(n_);
  const std::size_t nnz = row_idx_.size();
  // Entry A(i, j) lands in the lower triangle of B at row max(ni, nj),
  // column min(ni, nj). A counting-sort transpose orders each column by row
  // with no comparison sort: bucket the entries by their new row, then deal
  // the rows out in increasing order into their new columns.
  std::vector<index_t> row_ptr(n + 1, 0);
  std::vector<index_t> col_ptr(n + 1, 0);
  for (std::size_t j = 0; j < n; ++j) {
    const index_t nj = new_of_old[j];
    for (index_t p = col_ptr_[j]; p < col_ptr_[j + 1]; ++p) {
      const index_t ni =
          new_of_old[static_cast<std::size_t>(row_idx_[static_cast<std::size_t>(p)])];
      ++row_ptr[static_cast<std::size_t>(std::max(ni, nj)) + 1];
      ++col_ptr[static_cast<std::size_t>(std::min(ni, nj)) + 1];
    }
  }
  std::partial_sum(row_ptr.begin(), row_ptr.end(), row_ptr.begin());
  std::partial_sum(col_ptr.begin(), col_ptr.end(), col_ptr.begin());

  std::vector<index_t> row_idx(nnz);
  std::vector<index_t> source(nnz);
  {
    // By new row: the new column and the source entry of each entry.
    std::vector<index_t> by_row_col(nnz);
    std::vector<index_t> by_row_source(nnz);
    std::vector<index_t> next(row_ptr.begin(), row_ptr.end() - 1);
    for (std::size_t j = 0; j < n; ++j) {
      const index_t nj = new_of_old[j];
      for (index_t p = col_ptr_[j]; p < col_ptr_[j + 1]; ++p) {
        const index_t ni = new_of_old[static_cast<std::size_t>(
            row_idx_[static_cast<std::size_t>(p)])];
        const auto slot = static_cast<std::size_t>(
            next[static_cast<std::size_t>(std::max(ni, nj))]++);
        by_row_col[slot] = std::min(ni, nj);
        by_row_source[slot] = p;
      }
    }
    next.assign(col_ptr.begin(), col_ptr.end() - 1);
    for (std::size_t r = 0; r < n; ++r) {
      for (index_t t = row_ptr[r]; t < row_ptr[r + 1]; ++t) {
        const auto slot = static_cast<std::size_t>(
            next[static_cast<std::size_t>(by_row_col[static_cast<std::size_t>(t)])]++);
        row_idx[slot] = static_cast<index_t>(r);
        source[slot] = by_row_source[static_cast<std::size_t>(t)];
      }
    }
  }
  std::vector<double> values(nnz);
  for (std::size_t t = 0; t < nnz; ++t) {
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

void SparseSpd::assign_values(std::span<const double> values) {
  MFGPU_CHECK(values.size() == values_.size(),
              "SparseSpd::assign_values: size mismatch");
  std::copy(values.begin(), values.end(), values_.begin());
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
  const auto n = static_cast<std::size_t>(g.n);
  // Vertex v's sorted neighbours are its lower neighbours (the columns
  // j < v holding row v, met in increasing j by a column sweep) followed by
  // its upper ones (column v's rows, already sorted): no per-vertex sort.
  std::vector<index_t> lower(n, 0);
  for (index_t j = 0; j < g.n; ++j) {
    const auto rows = a.column_rows(j);
    for (std::size_t t = 1; t < rows.size(); ++t) {  // skip the diagonal
      ++lower[static_cast<std::size_t>(rows[t])];
    }
  }
  g.ptr.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const auto upper =
        static_cast<index_t>(a.column_rows(static_cast<index_t>(v)).size()) - 1;
    g.ptr[v + 1] = g.ptr[v] + lower[v] + upper;
  }
  g.adj.resize(static_cast<std::size_t>(g.ptr.back()));
  std::vector<index_t> next(g.ptr.begin(), g.ptr.end() - 1);
  for (index_t j = 0; j < g.n; ++j) {
    const auto rows = a.column_rows(j);
    for (std::size_t t = 1; t < rows.size(); ++t) {
      const auto i = static_cast<std::size_t>(rows[t]);
      g.adj[static_cast<std::size_t>(next[i]++)] = j;
    }
    const auto v = static_cast<std::size_t>(j);
    std::copy(rows.begin() + 1, rows.end(),
              g.adj.begin() + g.ptr[v] + lower[v]);
  }
  return g;
}

}  // namespace mfgpu
