#include "sparse/io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sparse/generators.hpp"

namespace mfgpu {
namespace {

TEST(IoTest, RoundTripPreservesMatrix) {
  const GridProblem p = make_laplacian_3d(3, 3, 2);
  std::stringstream buffer;
  write_matrix_market(buffer, p.matrix);
  const SparseSpd back = read_matrix_market(buffer);
  ASSERT_EQ(back.n(), p.matrix.n());
  ASSERT_EQ(back.nnz_lower(), p.matrix.nnz_lower());
  for (index_t j = 0; j < back.n(); ++j) {
    const auto rows_a = p.matrix.column_rows(j);
    const auto rows_b = back.column_rows(j);
    ASSERT_EQ(rows_a.size(), rows_b.size());
    for (std::size_t t = 0; t < rows_a.size(); ++t) {
      EXPECT_EQ(rows_a[t], rows_b[t]);
      EXPECT_DOUBLE_EQ(p.matrix.column_values(j)[t], back.column_values(j)[t]);
    }
  }
}

TEST(IoTest, RejectsGeneralHeader) {
  std::stringstream buffer(
      "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(buffer), InvalidArgumentError);
}

TEST(IoTest, RejectsTruncatedEntries) {
  std::stringstream buffer(
      "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(buffer), InvalidArgumentError);
}

/// The InvalidArgumentError message read_matrix_market throws for `text`.
std::string read_error(const std::string& text) {
  std::stringstream buffer(text);
  try {
    read_matrix_market(buffer);
  } catch (const InvalidArgumentError& e) {
    return e.what();
  }
  ADD_FAILURE() << "no InvalidArgumentError for:\n" << text;
  return "";
}

TEST(IoTest, RejectsOutOfRangeIndexNamingTheEntry) {
  const std::string message = read_error(
      "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n"
      "1 1 1.0\n3 1 0.5\n");
  EXPECT_NE(message.find("entry 2 (3, 1)"), std::string::npos) << message;
  EXPECT_NE(message.find("out of range"), std::string::npos) << message;
  EXPECT_NE(read_error("%%MatrixMarket matrix coordinate real symmetric\n"
                       "2 2 1\n0 1 1.0\n")
                .find("out of range"),
            std::string::npos);
}

TEST(IoTest, RejectsNonFiniteValues) {
  for (const char* value : {"nan", "inf", "-inf", "NaN"}) {
    const std::string message = read_error(
        std::string("%%MatrixMarket matrix coordinate real symmetric\n"
                    "2 2 2\n1 1 1.0\n2 2 ") +
        value + "\n");
    EXPECT_NE(message.find("non-finite value"), std::string::npos)
        << value << ": " << message;
    EXPECT_NE(message.find("entry 2 (2, 2)"), std::string::npos) << message;
  }
}

TEST(IoTest, SkipsCommentLines) {
  std::stringstream buffer(
      "%%MatrixMarket matrix coordinate real symmetric\n% comment\n"
      "2 2 2\n1 1 2.0\n2 2 2.0\n");
  const SparseSpd a = read_matrix_market(buffer);
  EXPECT_EQ(a.n(), 2);
  EXPECT_DOUBLE_EQ(a.column_values(0)[0], 2.0);
}

TEST(IoTest, MissingFileThrows) {
  EXPECT_THROW(read_matrix_market(std::string("/nonexistent/x.mtx")),
               InvalidArgumentError);
}

}  // namespace
}  // namespace mfgpu
