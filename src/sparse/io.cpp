#include "sparse/io.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "sparse/coo.hpp"

namespace mfgpu {

void write_matrix_market(std::ostream& os, const SparseSpd& a) {
  os << "%%MatrixMarket matrix coordinate real symmetric\n";
  os << a.n() << ' ' << a.n() << ' ' << a.nnz_lower() << '\n';
  os.precision(17);
  for (index_t j = 0; j < a.n(); ++j) {
    const auto rows = a.column_rows(j);
    const auto vals = a.column_values(j);
    for (std::size_t t = 0; t < rows.size(); ++t) {
      os << rows[t] + 1 << ' ' << j + 1 << ' ' << vals[t] << '\n';
    }
  }
}

void write_matrix_market(const std::string& path, const SparseSpd& a) {
  std::ofstream os(path);
  if (!os) throw InvalidArgumentError("cannot open for writing: " + path);
  write_matrix_market(os, a);
}

SparseSpd read_matrix_market(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) {
    throw InvalidArgumentError("matrix market: empty stream");
  }
  {
    std::istringstream header(line);
    std::string banner, object, format, field, symmetry;
    header >> banner >> object >> format >> field >> symmetry;
    if (banner != "%%MatrixMarket" || object != "matrix" ||
        format != "coordinate" || field != "real" || symmetry != "symmetric") {
      throw InvalidArgumentError(
          "matrix market: expected 'matrix coordinate real symmetric' header");
    }
  }
  while (std::getline(is, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  index_t rows = 0, cols = 0, nnz = 0;
  {
    std::istringstream sizes(line);
    sizes >> rows >> cols >> nnz;
    if (!sizes || rows != cols || rows <= 0 || nnz < 0) {
      throw InvalidArgumentError("matrix market: bad size line");
    }
  }
  Coo coo(rows);
  std::string token;  // the value as written; reused across entries
  for (index_t t = 0; t < nnz; ++t) {
    index_t i = 0, j = 0;
    if (!(is >> i >> j >> token)) {
      throw InvalidArgumentError("matrix market: truncated entry list");
    }
    const auto reject = [&](const std::string& why) {
      return InvalidArgumentError(
          "matrix market: entry " + std::to_string(t + 1) + " (" +
          std::to_string(i) + ", " + std::to_string(j) + "): " + why);
    };
    if (i < 1 || i > rows || j < 1 || j > rows) {
      throw reject("index out of range 1.." + std::to_string(rows));
    }
    // strtod, unlike operator>>, parses nan/inf so they can be named.
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') {
      throw reject("malformed value '" + token + "'");
    }
    if (!std::isfinite(v)) throw reject("non-finite value '" + token + "'");
    coo.add(i - 1, j - 1, v);
  }
  return coo.to_csc();
}

SparseSpd read_matrix_market(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw InvalidArgumentError("cannot open for reading: " + path);
  return read_matrix_market(is);
}

}  // namespace mfgpu
