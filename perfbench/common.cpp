#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hpp"
#include "sparse/generators.hpp"

namespace perfbench {

using namespace mfgpu;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- Outcome ---------------------------------------------------------------

void Outcome::add(const std::string& name, double value,
                  const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void Outcome::count(bool ok) {
  ++attempted;
  if (!ok) ++failed;
}

void Outcome::wrong(const std::string& what) {
  std::fprintf(stderr, "perfbench: WRONG ANSWER: %s\n", what.c_str());
  ++failed;
  correct = false;
}

std::string Outcome::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
       << value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

// ---- statistics ------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

std::string host_facts() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
  std::string model = "unknown";
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000002u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      __get_cpuid(0x80000003u, &regs[4], &regs[5], &regs[6], &regs[7]) &&
      __get_cpuid(0x80000004u, &regs[8], &regs[9], &regs[10], &regs[11])) {
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    model = brand;
    model.erase(0, model.find_first_not_of(' '));
  }
#endif
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  std::ostringstream os;
  os << "host: nproc=" << nproc << " cpu=\"" << model << "\" llc_kib="
     << (llc > 0 ? llc / 1024 : 0) << " build=" << PERFBENCH_BUILD_TYPE
     << " compiler=\"" << PERFBENCH_COMPILER << "\" cxx_flags=\""
     << PERFBENCH_CXX_FLAGS << "\"";
  return os.str();
}

// ---- seeded inputs ---------------------------------------------------------

Rng seeded_rng(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 of (seed, stream): decorrelated streams per purpose.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull +
                    0x94d049bb133111ebull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return Rng(z ^ (z >> 31));
}

SparseSpd append_seeded_chain(const SparseSpd& a, Rng& rng) {
  const index_t length = rng.uniform_int(1, 32);
  const index_t n = a.n() + length;
  std::vector<index_t> col_ptr(a.col_ptr().begin(), a.col_ptr().end());
  std::vector<index_t> row_idx(a.row_idx().begin(), a.row_idx().end());
  std::vector<double> values(a.values().begin(), a.values().end());
  for (index_t j = a.n(); j < n; ++j) {  // tridiag(-1, 2, -1): SPD
    row_idx.push_back(j);
    values.push_back(2.0);
    if (j + 1 < n) {
      row_idx.push_back(j + 1);
      values.push_back(-1.0);
    }
    col_ptr.push_back(static_cast<index_t>(row_idx.size()));
  }
  return SparseSpd(n, std::move(col_ptr), std::move(row_idx), std::move(values));
}

SparseSpd scale_values(const SparseSpd& a, Rng& rng) {
  std::vector<double> d(static_cast<std::size_t>(a.n()));
  for (double& v : d) v = rng.log_uniform(0.8, 1.25);
  std::vector<double> values(a.values().begin(), a.values().end());
  for (index_t j = 0; j < a.n(); ++j) {
    for (index_t p = a.col_ptr()[static_cast<std::size_t>(j)];
         p < a.col_ptr()[static_cast<std::size_t>(j) + 1]; ++p) {
      const auto i = static_cast<std::size_t>(a.row_idx()[static_cast<std::size_t>(p)]);
      values[static_cast<std::size_t>(p)] *= d[i] * d[static_cast<std::size_t>(j)];
    }
  }
  return SparseSpd(a.n(), {a.col_ptr().begin(), a.col_ptr().end()},
                   {a.row_idx().begin(), a.row_idx().end()}, std::move(values));
}

std::vector<double> random_vector(index_t n, Rng& rng) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

Matrix<double> random_block(index_t n, index_t cols, Rng& rng) {
  Matrix<double> b(n, cols);
  for (index_t j = 0; j < cols; ++j) {
    for (index_t i = 0; i < n; ++i) b(i, j) = rng.uniform(-1.0, 1.0);
  }
  return b;
}

double relative_residual(const SparseSpd& a, const double* x, const double* b) {
  const auto n = static_cast<std::size_t>(a.n());
  std::vector<double> ax(n);
  a.multiply({x, n}, ax);
  double r2 = 0.0, b2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    r2 += (b[i] - ax[i]) * (b[i] - ax[i]);
    b2 += b[i] * b[i];
  }
  return std::sqrt(r2 / b2);
}

double relative_error(const std::vector<double>& x, const std::vector<double>& y) {
  double e2 = 0.0, y2 = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    e2 += (x[i] - y[i]) * (x[i] - y[i]);
    y2 += y[i] * y[i];
  }
  return std::sqrt(e2 / y2);
}

bool bitwise_equal(const double* x, const double* y, std::size_t n) {
  return std::memcmp(x, y, n * sizeof(double)) == 0;
}

std::uint64_t fingerprint(const double* data, std::size_t n, std::uint64_t hash) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n * sizeof(double); ++i) {
    hash = (hash ^ bytes[i]) * 1099511628211ull;
  }
  return hash;
}

std::string hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

// ---- workload inputs -------------------------------------------------------

SparseSpd oneshot_matrix(std::uint64_t seed) {
  Rng values = seeded_rng(seed, 1);
  const GridProblem grid = make_elasticity_3d(16, 16, 16, 3, values);
  Rng chain = seeded_rng(seed, 2);
  return append_seeded_chain(grid.matrix, chain);
}

SolverOptions oneshot_options() {
  return {};  // MinimumDegree, BaselineHybrid, 1 host thread + 1 simulated T10
}

SparseSpd refactor_base_matrix(std::uint64_t seed) {
  Rng chain = seeded_rng(seed, 3);
  return append_seeded_chain(make_laplacian_2d_9pt(300, 300).matrix, chain);
}

SolverOptions refactor_options() {
  SolverOptions options;
  options.num_threads = 4;
  options.solve_threads = 4;
  return options;
}

std::vector<ServePattern> serve_patterns(std::uint64_t seed) {
  struct Spec {
    index_t nx, ny, nz, dof;
  };
  // Most popular first. No request trace says which models are popular, so
  // the ranks are chosen to be uncorrelated with cost: the Zipf-weighted
  // mean factor work (1.07e8 flops) is within 2% of the plain mean of the
  // 8 patterns (1.08e8), which range from 1.6e7 (13^3) to 2.6e8 (3-dof 10^3).
  const Spec specs[8] = {{17, 17, 17, 1}, {9, 9, 9, 3},    {16, 16, 16, 1},
                         {19, 19, 19, 1}, {14, 14, 14, 1}, {10, 10, 10, 3},
                         {15, 15, 15, 1}, {13, 13, 13, 1}};
  std::vector<ServePattern> patterns;
  for (std::uint64_t p = 0; p < 8; ++p) {
    const Spec& s = specs[p];
    Rng rng = seeded_rng(seed, 100 + p);
    const GridProblem grid = s.dof == 1 ? make_laplacian_3d(s.nx, s.ny, s.nz)
                                        : make_elasticity_3d(s.nx, s.ny, s.nz, s.dof, rng);
    const SparseSpd base = append_seeded_chain(grid.matrix, rng);
    ServePattern pattern;
    pattern.name = grid.name;
    for (int v = 0; v < kServeVariants; ++v) {
      pattern.variants.push_back(std::make_shared<const SparseSpd>(scale_values(base, rng)));
    }
    patterns.push_back(std::move(pattern));
  }
  return patterns;
}

SolverOptions serve_solver_options() {
  return {};  // each session: 1 host thread + 1 simulated T10, BaselineHybrid
}

// ---- spans -----------------------------------------------------------------

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

double SpanRecorder::now() const { return seconds_since(epoch_); }

SpanRecorder::Scope::Scope(SpanRecorder& recorder, std::string name)
    : recorder_(recorder), index_(static_cast<int>(recorder.spans_.size())) {
  const int parent = recorder.open_.empty() ? -1 : recorder.open_.back();
  recorder.spans_.push_back({std::move(name), recorder.now(), 0.0, parent});
  recorder.open_.push_back(index_);
}

SpanRecorder::Scope::~Scope() {
  recorder_.spans_[static_cast<std::size_t>(index_)].end = recorder_.now();
  recorder_.open_.pop_back();
}

double SpanRecorder::Scope::seconds() const {
  const Span& span = recorder_.spans_[static_cast<std::size_t>(index_)];
  return (span.end > 0.0 ? span.end : recorder_.now()) - span.start;
}

void SpanRecorder::record(const std::string& name, Clock::time_point start,
                          Clock::time_point end) {
  const auto rel = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - epoch_).count();
  };
  spans_.push_back({name, rel(start), rel(end), open_.empty() ? -1 : open_.back()});
}

std::vector<std::pair<std::string, double>> SpanRecorder::self_seconds_by_layer() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)].push_back({s.start, s.end});
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, reach = s.start;
    for (const auto& [b, e] : kids) {  // union of child intervals
      const double lo = std::max(b, reach), hi = std::min(e, s.end);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, hi);
    }
    by_layer[s.name.substr(0, s.name.find('.'))] += (s.end - s.start) - covered;
  }
  return {by_layer.begin(), by_layer.end()};
}

void SpanRecorder::write_json(const std::string& path, const std::string& header) const {
  std::ofstream os(path);
  os << "{\"header\": \"";
  for (char c : header) os << (c == '"' ? '\'' : c);
  os << "\", \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                  "\"end_s\": %.9f, \"parent\": %d}",
                  i ? "," : "", i, s.name.c_str(), s.start, s.end, s.parent);
    os << line;
  }
  os << "\n]}\n";
}

}  // namespace perfbench
