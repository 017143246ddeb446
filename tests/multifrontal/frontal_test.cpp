#include "multifrontal/frontal.hpp"

#include <gtest/gtest.h>

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
/// update block, as the drivers hand them over.
struct FrontStorage {
  explicit FrontStorage(const SupernodeInfo& sn)
      : panel(sn.front_order(), sn.width(), 0.0),
        update(sn.num_update_rows(), sn.num_update_rows(), 0.0),
        front(sn, panel.view(), update.view()) {}

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
  FrontalMatrix front;
};

TEST(FrontalTest, DimensionsAndRows) {
  const SupernodeInfo sn = make_snode(2, 4, {5, 7});
  FrontStorage storage(sn);
  const FrontalMatrix& front = storage.front;
  EXPECT_EQ(front.k(), 2);
  EXPECT_EQ(front.m(), 2);
  EXPECT_EQ(front.order(), 4);
  ASSERT_EQ(front.rows().size(), 4u);
  EXPECT_EQ(front.rows()[0], 2);
  EXPECT_EQ(front.rows()[3], 7);
  EXPECT_EQ(front.l1().data(), storage.panel.data());
  EXPECT_EQ(front.l2().data(), storage.panel.data() + 2);
  EXPECT_EQ(front.update().data(), storage.update.data());
}

TEST(FrontalTest, StorageShapeMismatchThrows) {
  const SupernodeInfo sn = make_snode(0, 2, {3});
  Matrix<double> square(3, 3), update(1, 1);
  EXPECT_THROW(FrontalMatrix(sn, square.view(), update.view()),
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
  const index_t moved = storage.front.assemble_from_matrix(a, sn);
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

}  // namespace
}  // namespace mfgpu
