#include "symbolic/postorder.hpp"

namespace mfgpu {

std::vector<std::vector<index_t>> children_lists(
    std::span<const index_t> parent) {
  const index_t n = static_cast<index_t>(parent.size());
  std::vector<std::vector<index_t>> children(static_cast<std::size_t>(n));
  for (index_t v = 0; v < n; ++v) {
    const index_t p = parent[static_cast<std::size_t>(v)];
    if (p != -1) {
      MFGPU_CHECK(p >= 0 && p < n, "postorder: parent out of range");
      children[static_cast<std::size_t>(p)].push_back(v);
    }
  }
  return children;
}

std::vector<index_t> postorder_forest(std::span<const index_t> parent) {
  const index_t n = static_cast<index_t>(parent.size());
  // Children flat by parent, each list in increasing index order.
  std::vector<index_t> child_ptr(static_cast<std::size_t>(n) + 1, 0);
  for (index_t v = 0; v < n; ++v) {
    const index_t p = parent[static_cast<std::size_t>(v)];
    if (p == -1) continue;
    MFGPU_CHECK(p >= 0 && p < n, "postorder: parent out of range");
    ++child_ptr[static_cast<std::size_t>(p) + 1];
  }
  for (index_t v = 0; v < n; ++v) {
    child_ptr[static_cast<std::size_t>(v) + 1] += child_ptr[static_cast<std::size_t>(v)];
  }
  std::vector<index_t> children(static_cast<std::size_t>(child_ptr.back()));
  {
    std::vector<index_t> next(child_ptr.begin(), child_ptr.end() - 1);
    for (index_t v = 0; v < n; ++v) {
      const index_t p = parent[static_cast<std::size_t>(v)];
      if (p != -1) children[static_cast<std::size_t>(next[static_cast<std::size_t>(p)]++)] = v;
    }
  }

  std::vector<index_t> order;
  order.reserve(static_cast<std::size_t>(n));
  // Iterative DFS: (vertex, next-child cursor).
  std::vector<std::pair<index_t, index_t>> stack;
  for (index_t root = 0; root < n; ++root) {
    if (parent[static_cast<std::size_t>(root)] != -1) continue;
    stack.emplace_back(root, child_ptr[static_cast<std::size_t>(root)]);
    while (!stack.empty()) {
      auto& [v, cursor] = stack.back();
      if (cursor < child_ptr[static_cast<std::size_t>(v) + 1]) {
        const index_t child = children[static_cast<std::size_t>(cursor++)];
        stack.emplace_back(child, child_ptr[static_cast<std::size_t>(child)]);
      } else {
        order.push_back(v);
        stack.pop_back();
      }
    }
  }
  MFGPU_CHECK(static_cast<index_t>(order.size()) == n,
              "postorder: forest has a cycle or dangling parent");
  return order;
}

bool is_postordered(std::span<const index_t> parent) {
  const index_t n = static_cast<index_t>(parent.size());
  // Every parent follows its children, and the depth-first postorder that
  // visits children in increasing order is the identity (every subtree's
  // vertices are contiguous).
  for (index_t v = 0; v < n; ++v) {
    const index_t p = parent[static_cast<std::size_t>(v)];
    if (p != -1 && p <= v) return false;
  }
  const auto order = postorder_forest(parent);
  for (index_t p = 0; p < n; ++p) {
    if (order[static_cast<std::size_t>(p)] != p) return false;
  }
  return true;
}

}  // namespace mfgpu
