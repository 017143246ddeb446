#include "symbolic/postorder.hpp"

#include <gtest/gtest.h>

namespace mfgpu {
namespace {

TEST(PostorderTest, ChainIsAlreadyPostordered) {
  const std::vector<index_t> parent = {1, 2, 3, -1};
  EXPECT_TRUE(is_postordered(parent));
  const auto order = postorder_forest(parent);
  for (index_t i = 0; i < 4; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(PostorderTest, OutOfOrderTreeGetsFixed) {
  // Root 0 with children 1 and 2 — parents point backwards.
  const std::vector<index_t> parent = {-1, 0, 0};
  EXPECT_FALSE(is_postordered(parent));
  const auto order = postorder_forest(parent);
  // Children (1, 2) first, root (0) last.
  EXPECT_EQ(order[2], 0);
}

TEST(PostorderTest, ForestWithTwoRoots) {
  const std::vector<index_t> parent = {1, -1, 3, -1};
  const auto order = postorder_forest(parent);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 2);
  EXPECT_EQ(order[3], 3);
  EXPECT_TRUE(is_postordered(parent));
}

TEST(PostorderTest, SubtreesAreContiguous) {
  //      5        the elimination tree
  //    /   \      that `parent` encodes
  //   2     4
  //  / \    |
  // 0   1   3
  const std::vector<index_t> parent = {2, 2, 5, 4, 5, -1};
  EXPECT_TRUE(is_postordered(parent));
}

TEST(PostorderTest, NonContiguousSubtreeDetected) {
  //      3 (root), children 0 and 2; 2's child is 1 — subtree of 2 is
  //      {1, 2}, contiguous; order 0,1,2,3 is a valid postorder? DFS from 3
  //      visits 0 then (1,2): postorder = 0,1,2,3 == identity, so true.
  const std::vector<index_t> a = {3, 2, 3, -1};
  EXPECT_TRUE(is_postordered(a));
  // Swap: 1's parent is 3 and 2's parent... make interleaved subtrees:
  // children of 3: {0, 2}; child of 2: {1}? That was `a`. Interleave:
  // child of 2 is 0, child of 3 is 1 — subtree of 2 = {0, 2} but 1 sits
  // between them.
  const std::vector<index_t> b = {2, 3, 3, -1};
  EXPECT_FALSE(is_postordered(b));
}

TEST(PostorderTest, ChildrenLists) {
  const std::vector<index_t> parent = {2, 2, -1};
  const auto children = children_lists(parent);
  ASSERT_EQ(children[2].size(), 2u);
  EXPECT_EQ(children[2][0], 0);
  EXPECT_EQ(children[2][1], 1);
  EXPECT_TRUE(children[0].empty());
}

TEST(PostorderTest, BadParentThrows) {
  const std::vector<index_t> parent = {7};
  EXPECT_THROW(children_lists(parent), InvalidArgumentError);
}

}  // namespace
}  // namespace mfgpu
