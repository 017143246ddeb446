// Request identity in SolverService: every result, including failed and
// rejected ones, carries a process-unique request id.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "serve/service.hpp"
#include "sparse/generators.hpp"
#include "support/rng.hpp"

namespace mfgpu::serve {
namespace {

std::shared_ptr<const SparseSpd> shared_matrix(const SparseSpd& a) {
  return std::make_shared<SparseSpd>(a);
}

std::shared_ptr<const SparseSpd> scaled_copy(const SparseSpd& a,
                                             double factor) {
  std::vector<double> values(a.values().begin(), a.values().end());
  for (double& v : values) v *= factor;
  return std::make_shared<SparseSpd>(
      a.n(), std::vector<index_t>(a.col_ptr().begin(), a.col_ptr().end()),
      std::vector<index_t>(a.row_idx().begin(), a.row_idx().end()),
      std::move(values));
}

std::vector<double> random_rhs(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  return b;
}

TEST(ServeHealth, EveryResultCarriesAUniqueRequestId) {
  const GridProblem p = make_laplacian_3d(4, 4, 3);
  const auto a = shared_matrix(p.matrix);
  ServeOptions options;
  options.num_sessions = 1;
  SolverService service(options);

  std::set<std::uint64_t> ids;
  for (int r = 0; r < 4; ++r) {
    const SolveResult result =
        service.submit(a, random_rhs(p.matrix.n(), 50 + r)).get();
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_NE(result.request_id, 0u);
    ids.insert(result.request_id);
  }
  EXPECT_EQ(ids.size(), 4u);

  // Failed and rejected requests are identified too.
  const SolveResult failed =
      service.submit(scaled_copy(p.matrix, -1.0), random_rhs(p.matrix.n(), 1))
          .get();
  EXPECT_EQ(failed.status, RequestStatus::Failed);
  EXPECT_NE(failed.request_id, 0u);
  service.shutdown(true);
  const SolveResult rejected =
      service.submit(a, random_rhs(p.matrix.n(), 2)).get();
  EXPECT_EQ(rejected.status, RequestStatus::Rejected);
  EXPECT_NE(rejected.request_id, 0u);
}

}  // namespace
}  // namespace mfgpu::serve
