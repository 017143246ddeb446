#include "multifrontal/frontal.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "multifrontal/stack_arena.hpp"
#include "sparse/coo.hpp"

namespace mfgpu {
namespace {

SupernodeInfo make_snode(index_t first, index_t last,
                         std::vector<index_t> rows) {
  SupernodeInfo sn;
  sn.first_col = first;
  sn.last_col = last;
  sn.update_rows = std::move(rows);
  return sn;
}

/// Zeroed split storage for one front: the (k+m) x k panel and the m x m
/// update block, as the drivers hand them over, and relative-index scratch
/// for the largest child a front can have.
struct FrontStorage {
  explicit FrontStorage(const SupernodeInfo& sn)
      : panel(sn.front_order(), sn.width(), 0.0),
        update(sn.num_update_rows(), sn.num_update_rows(), 0.0),
        scratch(static_cast<std::size_t>(sn.front_order())),
        front(sn, panel.view(), update.view(), scratch) {}

  /// Entries of `m` that differ from zero.
  static int nonzeros(const Matrix<double>& m) {
    int count = 0;
    for (index_t j = 0; j < m.cols(); ++j) {
      for (index_t i = 0; i < m.rows(); ++i) count += m(i, j) != 0.0;
    }
    return count;
  }

  Matrix<double> panel;
  Matrix<double> update;
  std::vector<index_t> scratch;
  FrontalMatrix front;
};

TEST(FrontalTest, DimensionsAndRows) {
  const SupernodeInfo sn = make_snode(2, 4, {5, 7});
  FrontStorage storage(sn);
  const FrontalMatrix& front = storage.front;
  EXPECT_EQ(front.k(), 2);
  EXPECT_EQ(front.m(), 2);
  EXPECT_EQ(front.order(), 4);
  EXPECT_EQ(front.order(), sn.front_order());
  // Front rows are the supernode's columns, then its update rows: global
  // row 2 is front row 0 and global row 7 is front row 3.
  const std::vector<index_t> child_rows = {2, 7};
  const std::vector<double> packed = {1.0, 2.0, 3.0};
  storage.front.extend_add(child_rows, packed);
  EXPECT_DOUBLE_EQ(storage.panel(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(storage.panel(3, 0), 2.0);
  EXPECT_DOUBLE_EQ(storage.update(1, 1), 3.0);
  EXPECT_EQ(front.l1().data(), storage.panel.data());
  EXPECT_EQ(front.l2().data(), storage.panel.data() + 2);
  EXPECT_EQ(front.update().data(), storage.update.data());
}

TEST(FrontalTest, StorageShapeMismatchThrows) {
  const SupernodeInfo sn = make_snode(0, 2, {3});
  Matrix<double> square(3, 3), update(1, 1);
  std::vector<index_t> scratch(3);
  EXPECT_THROW(FrontalMatrix(sn, square.view(), update.view(), scratch),
               InvalidArgumentError);
}

TEST(FrontalTest, AssembleFromMatrixScatters) {
  // 3x3 matrix, supernode covering column 0 with update rows {1, 2}.
  Coo coo(3);
  coo.add(0, 0, 4.0);
  coo.add(1, 0, -1.0);
  coo.add(2, 0, -2.0);
  coo.add(1, 1, 4.0);
  coo.add(2, 1, -3.0);
  coo.add(2, 2, 4.0);
  const SparseSpd a = coo.to_csc();
  const SupernodeInfo sn = make_snode(0, 1, {1, 2});
  FrontStorage storage(sn);
  const index_t moved = storage.front.assemble_from_matrix(a);
  EXPECT_EQ(moved, 3);
  EXPECT_DOUBLE_EQ(storage.front.l1()(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(storage.front.l2()(0, 0), -1.0);
  EXPECT_DOUBLE_EQ(storage.front.l2()(1, 0), -2.0);
  // Columns 1 and 2 belong to other supernodes: the update block stays zero.
  EXPECT_EQ(FrontStorage::nonzeros(storage.update), 0);
}

TEST(FrontalTest, ExtendAddMapsRelativeIndices) {
  // Parent front: columns {4,5}, update rows {7, 9}.
  const SupernodeInfo parent = make_snode(4, 6, {7, 9});
  FrontStorage storage(parent);
  // Child update over global rows {5, 7, 9} (packed lower 3x3).
  const std::vector<index_t> child_rows = {5, 7, 9};
  std::vector<double> packed(6);
  // Entries: (5,5)=1, (7,5)=2, (9,5)=3, (7,7)=4, (9,7)=5, (9,9)=6.
  for (std::size_t i = 0; i < 6; ++i) packed[i] = static_cast<double>(i + 1);
  storage.front.extend_add(child_rows, packed);
  // Local indices: 5 -> 1 (second column of snode), 7 -> 2, 9 -> 3. Column
  // 5 is a panel column: its rows land in the panel, L1 and L2 alike.
  const Matrix<double>& panel = storage.panel;
  EXPECT_DOUBLE_EQ(panel(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(panel(2, 1), 2.0);
  EXPECT_DOUBLE_EQ(panel(3, 1), 3.0);
  EXPECT_EQ(FrontStorage::nonzeros(panel), 3);
  // Columns 7 and 9 are update columns: shifted by k = 2 into the block.
  const Matrix<double>& update = storage.update;
  EXPECT_DOUBLE_EQ(update(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(update(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(update(1, 1), 6.0);
  EXPECT_DOUBLE_EQ(update(0, 1), 0.0);  // upper triangle untouched
}

TEST(FrontalTest, ExtendAddAccumulates) {
  const SupernodeInfo parent = make_snode(0, 1, {1});
  FrontStorage storage(parent);
  const std::vector<index_t> child_rows = {1};
  const std::vector<double> packed = {2.5};
  storage.front.extend_add(child_rows, packed);
  storage.front.extend_add(child_rows, packed);
  EXPECT_DOUBLE_EQ(storage.front.update()(0, 0), 5.0);
  EXPECT_EQ(FrontStorage::nonzeros(storage.panel), 0);
}

TEST(FrontalTest, PackUpdateRoundTrips) {
  const SupernodeInfo sn = make_snode(0, 1, {1, 2});
  FrontStorage storage(sn);
  storage.update(0, 0) = 1.0;
  storage.update(1, 0) = 2.0;
  storage.update(1, 1) = 3.0;
  storage.update(0, 1) = 99.0;  // upper triangle: never packed
  storage.panel.fill(-7.0);     // the panel is not the update
  std::vector<double> packed(3);
  storage.front.pack_update(packed);
  EXPECT_DOUBLE_EQ(packed[0], 1.0);
  EXPECT_DOUBLE_EQ(packed[1], 2.0);
  EXPECT_DOUBLE_EQ(packed[2], 3.0);
}

TEST(FrontalTest, ForeignRowThrows) {
  const SupernodeInfo sn = make_snode(0, 1, {2});
  FrontStorage storage(sn);
  const std::vector<index_t> bad_rows = {3};
  const std::vector<double> packed = {1.0};
  EXPECT_THROW(storage.front.extend_add(bad_rows, packed),
               InvalidArgumentError);
}

TEST(FrontalTest, PackedSizeMismatchThrows) {
  const SupernodeInfo sn = make_snode(0, 1, {1, 2});
  FrontStorage storage(sn);
  const std::vector<index_t> rows = {1, 2};
  const std::vector<double> wrong(2);
  EXPECT_THROW(storage.front.extend_add(rows, wrong), InvalidArgumentError);
}

TEST(FrontalTest, DryModeCountsWithoutStorage) {
  const SupernodeInfo sn = make_snode(0, 2, {3, 4, 5});
  FrontalMatrix front(sn);
  const std::vector<index_t> rows = {3, 4};
  const std::vector<double> packed(3);
  EXPECT_EQ(front.extend_add(rows, packed), 3);
  EXPECT_THROW(front.panel(), InvalidArgumentError);
  EXPECT_THROW(front.update(), InvalidArgumentError);
}

// Random parents (columns plus sorted update rows) and children whose update
// rows are random subsets of the parent's rows, panel columns included:
// assembly and extend-add must match a dense scatter through an explicit
// global-to-front row map, entry for entry, adds in the same order.
TEST(FrontalTest, RandomScattersMatchDenseReference) {
  std::mt19937_64 rng(31);
  auto chance = [&](double p) {
    return std::uniform_real_distribution<double>(0.0, 1.0)(rng) < p;
  };
  auto value = [&] {
    return std::uniform_real_distribution<double>(-1.0, 1.0)(rng);
  };
  constexpr index_t n = 48;
  for (int trial = 0; trial < 200; ++trial) {
    const index_t first = std::uniform_int_distribution<index_t>(0, 12)(rng);
    const index_t k = std::uniform_int_distribution<index_t>(1, 6)(rng);
    std::vector<index_t> update_rows;
    for (index_t r = first + k; r < n; ++r) {
      if (chance(0.3)) update_rows.push_back(r);
    }
    const SupernodeInfo sn = make_snode(first, first + k, update_rows);
    std::vector<index_t> rows;  // global row of each front row
    for (index_t j = first; j < first + k; ++j) rows.push_back(j);
    rows.insert(rows.end(), update_rows.begin(), update_rows.end());
    const index_t order = sn.front_order();
    std::vector<index_t> local(static_cast<std::size_t>(n), -1);
    for (index_t i = 0; i < order; ++i) {
      local[static_cast<std::size_t>(rows[static_cast<std::size_t>(i)])] = i;
    }
    Matrix<double> reference(order, order, 0.0);
    FrontStorage storage(sn);

    // A: the diagonal everywhere, and in the supernode's columns a random
    // subset of the front rows below it.
    Coo coo(n);
    for (index_t j = 0; j < n; ++j) coo.add(j, j, 4.0 + value());
    for (index_t j = first; j < first + k; ++j) {
      for (const index_t r : rows) {
        if (r > j && chance(0.5)) coo.add(r, j, value());
      }
    }
    const SparseSpd a = coo.to_csc();
    storage.front.assemble_from_matrix(a);
    for (index_t j = first; j < first + k; ++j) {
      const auto col_rows = a.column_rows(j);
      const auto vals = a.column_values(j);
      for (std::size_t t = 0; t < col_rows.size(); ++t) {
        reference(local[static_cast<std::size_t>(col_rows[t])], j - first) +=
            vals[t];
      }
    }

    // Up to three children, extend-added in turn.
    const int children = std::uniform_int_distribution<int>(1, 3)(rng);
    for (int c = 0; c < children; ++c) {
      std::vector<index_t> child_rows;
      for (const index_t r : rows) {
        if (chance(0.5)) child_rows.push_back(r);
      }
      const auto mc = static_cast<index_t>(child_rows.size());
      std::vector<double> packed(static_cast<std::size_t>(packed_lower_size(mc)));
      for (double& v : packed) v = value();
      storage.front.extend_add(child_rows, packed);
      std::size_t t = 0;
      for (index_t j = 0; j < mc; ++j) {
        for (index_t i = j; i < mc; ++i) {
          reference(local[static_cast<std::size_t>(child_rows[static_cast<std::size_t>(i)])],
                    local[static_cast<std::size_t>(child_rows[static_cast<std::size_t>(j)])]) +=
              packed[t++];
        }
      }
    }

    for (index_t j = 0; j < order; ++j) {
      for (index_t i = 0; i < order; ++i) {
        const double got = j < k ? storage.panel(i, j)
                           : i < k ? 0.0
                                   : storage.update(i - k, j - k);
        ASSERT_EQ(got, reference(i, j))
            << "trial " << trial << " entry (" << i << ", " << j << ")";
      }
    }
  }
}

}  // namespace
}  // namespace mfgpu
