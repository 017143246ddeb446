#include "multifrontal/factorization.hpp"

#include <algorithm>
#include <cstdint>

#if defined(__linux__)
#include <sys/mman.h>
#endif


namespace mfgpu {

namespace {

/// Uninitialized storage for the factor store, which the drivers write
/// panel by panel before anything reads it. On Linux a large store's whole
/// 2 MiB pages are advised as transparent huge pages, so first touch costs
/// one fault per 2 MiB instead of one per 4 KiB: every one-shot
/// factorization of the oneshot matrix faults in a fresh 71 MB store, and
/// every page of it is used. Only stores of at least 32 MiB are advised:
/// the allocator maps those on their own and unmaps them on free, while a
/// smaller one may sit in heap memory that is later reused for other
/// blocks, where resident huge pages raised peak RSS by 8%.
std::unique_ptr<double[]> allocate_store(std::size_t entries) {
  auto store = std::make_unique_for_overwrite<double[]>(entries);
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  constexpr std::uintptr_t kHugePage = std::uintptr_t{1} << 21;
  constexpr std::size_t kOwnMappingBytes = std::size_t{32} << 20;
  const auto begin = reinterpret_cast<std::uintptr_t>(store.get());
  const std::uintptr_t end = begin + entries * sizeof(double);
  const std::uintptr_t first = (begin + kHugePage - 1) & ~(kHugePage - 1);
  const std::uintptr_t last = end & ~(kHugePage - 1);
  if (entries * sizeof(double) >= kOwnMappingBytes && last > first) {
    // Advice only: a kernel that declines it leaves ordinary pages.
    (void)madvise(reinterpret_cast<void*>(first), last - first, MADV_HUGEPAGE);
  }
#endif
  return store;
}

}  // namespace

Factorization::Factorization(const Factorization& other)
    : numeric(other.numeric), store_entries_(other.store_entries_) {
  if (store_entries_ > 0) {
    store_ = allocate_store(store_entries_);
    std::copy_n(other.store_.get(), store_entries_, store_.get());
  }
  panels.reserve(other.panels.size());
  for (const MatrixView<double>& p : other.panels) {
    panels.emplace_back(store_.get() + (p.data() - other.store_.get()),
                        p.rows(), p.cols(), p.ld());
  }
}

Factorization& Factorization::operator=(const Factorization& other) {
  if (this != &other) *this = Factorization(other);
  return *this;
}

void Factorization::lay_out(std::span<const SupernodeInfo> supernodes) {
  bool same = panels.size() == supernodes.size();
  std::size_t entries = 0;
  for (std::size_t s = 0; s < supernodes.size(); ++s) {
    const SupernodeInfo& sn = supernodes[s];
    same = same && panels[s].rows() == sn.front_order() &&
           panels[s].cols() == sn.width();
    entries += static_cast<std::size_t>(sn.front_order()) *
               static_cast<std::size_t>(sn.width());
  }
  if (same) return;
  if (entries != store_entries_) {
    store_ = allocate_store(entries);
    store_entries_ = entries;
  }
  panels.clear();
  panels.reserve(supernodes.size());
  double* at = store_.get();
  for (const SupernodeInfo& sn : supernodes) {
    panels.emplace_back(at, sn.front_order(), sn.width(),
                        std::max<index_t>(sn.front_order(), 1));
    at += sn.front_order() * sn.width();
  }
}

std::int64_t Factorization::storage_bytes() const noexcept {
  return static_cast<std::int64_t>(store_entries_ * sizeof(double));
}

std::optional<FactorDifference> first_factor_difference(
    const Factorization& a, const Factorization& b) {
  if (a.panels.size() != b.panels.size()) {
    return FactorDifference{.panel = std::min(a.panels.size(),
                                              b.panels.size())};
  }
  for (std::size_t s = 0; s < a.panels.size(); ++s) {
    const MatrixView<double>& pa = a.panels[s];
    const MatrixView<double>& pb = b.panels[s];
    if (pa.rows() != pb.rows() || pa.cols() != pb.cols()) {
      return FactorDifference{.panel = s};
    }
    for (index_t j = 0; j < pa.cols(); ++j) {
      for (index_t i = j; i < pa.rows(); ++i) {
        if (pa(i, j) != pb(i, j)) {
          return FactorDifference{s, i, j, pa(i, j), pb(i, j)};
        }
      }
    }
  }
  return std::nullopt;
}

}  // namespace mfgpu
