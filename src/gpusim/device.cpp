#include "gpusim/device.hpp"

#include <limits>

#include "obs/metrics.hpp"

namespace mfgpu {
namespace {

/// PCIe accounting shared by all four copy paths.
void count_transfer(const char* direction, double bytes, double duration) {
  if (!mfgpu::obs::enabled()) return;
  auto& metrics = mfgpu::obs::MetricsRegistry::global();
  metrics.add("gpusim.pcie.bytes", bytes);
  metrics.add("gpusim.pcie.seconds", duration);
  metrics.add(std::string("gpusim.pcie.") + direction + ".bytes", bytes);
  metrics.increment(std::string("gpusim.pcie.") + direction + ".copies");
}

double matrix_bytes(index_t rows, index_t cols) {
  return static_cast<double>(rows) * static_cast<double>(cols) *
         static_cast<double>(sizeof(float));
}

/// The numeric side of one host-to-device copy. An injected corruption
/// poisons element (0, 0) of the device block.
void land_upload(MatrixView<const double> src, MatrixView<float> block,
                 FaultKind fault) {
  copy_into<float>(src, block);
  if (fault == FaultKind::TransferCorruption && !block.empty()) {
    block(0, 0) = std::numeric_limits<float>::quiet_NaN();
  }
}

/// The numeric side of one device-to-host copy: convert `block` into
/// `dst`, or, when `dst` has no storage, leave the data in place for the
/// host to read from `block`. An injected corruption poisons element (0, 0)
/// of whichever of the two the host reads next.
void land_download(MatrixView<float> block, MatrixView<double> dst,
                   FaultKind fault) {
  const bool poison = fault == FaultKind::TransferCorruption && !block.empty();
  if (dst.data() == nullptr) {
    if (poison) block(0, 0) = std::numeric_limits<float>::quiet_NaN();
    return;
  }
  copy_into<double>(block, dst);
  if (poison) dst(0, 0) = std::numeric_limits<double>::quiet_NaN();
}

/// The storage a device matrix of `slot` views. One F-U call has only one
/// policy's slots live, so P2–P4 share storage by slot role ("p2.prod",
/// "p3.prod" and "p4.prod" view one buffer, as do the l1 and the l2 slots);
/// P4's panel and the batch.* slabs keep their own.
std::string storage_role(const std::string& slot) {
  const bool policy_slot = slot.size() > 3 && slot[0] == 'p' &&
                           slot[1] >= '2' && slot[1] <= '4' && slot[2] == '.';
  return policy_slot ? slot.substr(3) : slot;
}

[[noreturn]] void throw_transfer_death() {
  throw DeviceFaultError("gpusim: device died during transfer",
                         /*sticky=*/true);
}

}  // namespace

Device::Device() : Device(Options{}) {}

Device::Device(Options options)
    : options_(options),
      streams_(3),
      device_pool_("device", options.transfer.device_alloc_latency, 0.0,
                   options.memory_bytes, options.pool_reuse),
      pinned_pool_("pinned", options.transfer.pinned_alloc_latency,
                   options.transfer.pinned_alloc_per_byte,
                   // Pinned memory is host RAM; cap it generously.
                   std::int64_t{32} * 1024 * 1024 * 1024,
                   options.pool_reuse),
      injector_(options.faults) {}

void Device::check_alloc_fault(const char* what) {
  switch (injector_.sample(FaultSite::Alloc)) {
    case FaultKind::DeviceDeath:
      throw DeviceFaultError(std::string(what) + ": device died",
                             /*sticky=*/true);
    case FaultKind::SpuriousOom:
      throw DeviceOutOfMemoryError(std::string(what) +
                                   ": injected spurious out-of-memory");
    default:
      break;
  }
}

double Device::reserve(index_t rows, index_t cols, const std::string& slot,
                       SimClock& host) {
  MFGPU_CHECK(rows >= 0 && cols >= 0, "Device::allocate: negative dims");
  check_alloc_fault("Device::allocate");
  const auto bytes = static_cast<std::int64_t>(matrix_bytes(rows, cols));
  const double cost = device_pool_.acquire(slot, bytes);
  CostClassScope cls(CostClass::Alloc);
  host.advance(cost);
  return cost;
}

DeviceMatrix Device::allocate(index_t rows, index_t cols,
                              const std::string& slot, SimClock& host) {
  reserve(rows, cols, slot, host);
  DeviceMatrix m;
  if (options_.numeric) {
    std::vector<float>& storage = storage_[storage_role(slot)];
    const auto entries =
        static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
    if (storage.size() < entries) storage = std::vector<float>(entries);
    m.data = MatrixView<float>(storage.data(), rows, cols,
                               std::max<index_t>(rows, 1));
  }
  m.shape_rows = rows;
  m.shape_cols = cols;
  m.available_at = host.now();
  return m;
}

double Device::acquire_pinned(const std::string& slot, std::int64_t bytes,
                              SimClock& host) {
  check_alloc_fault("Device::acquire_pinned");
  const double cost = pinned_pool_.acquire(slot, bytes);
  CostClassScope cls(CostClass::Alloc);
  host.advance(cost);
  return cost;
}

MatrixView<float> Device::device_block(DeviceMatrix& m, index_t i0, index_t j0,
                                       index_t rows, index_t cols) const {
  return m.data.block(i0, j0, rows, cols);
}

double Device::copy_to_device_sync(MatrixView<const double> src,
                                   DeviceMatrix& dst, index_t i0, index_t j0,
                                   SimClock& host) {
  const FaultKind fault = injector_.sample(FaultSite::Transfer);
  if (fault == FaultKind::DeviceDeath) throw_transfer_death();
  const double bytes = matrix_bytes(src.rows(), src.cols());
  bytes_transferred_ += bytes;
  if (options_.numeric) {
    land_upload(src, device_block(dst, i0, j0, src.rows(), src.cols()), fault);
  }
  const double duration = transfer().sync_copy_time(bytes);
  count_transfer("h2d", bytes, duration);
  // A pageable copy blocks the host and serializes with prior device work
  // touching the destination.
  const double done = std::max(host.now(), dst.available_at) + duration;
  CostClassScope cls(CostClass::Transfer);
  if (ClockSink* sink = host.sink()) {
    sink->on_sync_copy(dst.available_at, duration, done);
  }
  host.advance_to(done);
  dst.available_at = done;
  return duration;
}

double Device::copy_from_device_sync(const DeviceMatrix& src, index_t i0,
                                     index_t j0, MatrixView<double> dst,
                                     SimClock& host) {
  const FaultKind fault = injector_.sample(FaultSite::Transfer);
  if (fault == FaultKind::DeviceDeath) throw_transfer_death();
  const double bytes = matrix_bytes(dst.rows(), dst.cols());
  bytes_transferred_ += bytes;
  if (options_.numeric) {
    land_download(src.data.block(i0, j0, dst.rows(), dst.cols()), dst, fault);
  }
  const double duration = transfer().sync_copy_time(bytes);
  count_transfer("d2h", bytes, duration);
  const double done = std::max(host.now(), src.available_at) + duration;
  CostClassScope cls(CostClass::Transfer);
  if (ClockSink* sink = host.sink()) {
    sink->on_sync_copy(src.available_at, duration, done);
  }
  host.advance_to(done);
  return duration;
}

double Device::copy_to_device_async(MatrixView<const double> src,
                                    DeviceMatrix& dst, index_t i0, index_t j0,
                                    Stream& stream, SimClock& host) {
  const FaultKind fault = injector_.sample(FaultSite::Transfer);
  if (fault == FaultKind::DeviceDeath) throw_transfer_death();
  const double bytes = matrix_bytes(src.rows(), src.cols());
  bytes_transferred_ += bytes;
  if (options_.numeric) {
    land_upload(src, device_block(dst, i0, j0, src.rows(), src.cols()), fault);
  }
  CostClassScope cls(CostClass::Transfer);
  host.advance(transfer().enqueue_overhead);
  const double duration = transfer().async_copy_time(bytes);
  count_transfer("h2d", bytes, duration);
  const double earliest = std::max(host.now(), dst.available_at);
  const double done = stream.enqueue(earliest, duration);
  if (ClockSink* sink = host.sink()) {
    sink->on_enqueue(stream_index(stream), earliest, duration, done);
  }
  dst.available_at = done;
  return duration;
}

double Device::copy_from_device_async(const DeviceMatrix& src, index_t i0,
                                      index_t j0, MatrixView<double> dst,
                                      Stream& stream, SimClock& host) {
  const FaultKind fault = injector_.sample(FaultSite::Transfer);
  if (fault == FaultKind::DeviceDeath) throw_transfer_death();
  const double bytes = matrix_bytes(dst.rows(), dst.cols());
  bytes_transferred_ += bytes;
  if (options_.numeric) {
    land_download(src.data.block(i0, j0, dst.rows(), dst.cols()), dst, fault);
  }
  CostClassScope cls(CostClass::Transfer);
  host.advance(transfer().enqueue_overhead);
  const double duration = transfer().async_copy_time(bytes);
  count_transfer("d2h", bytes, duration);
  // Reads only: the copy waits for the producer but does not bump
  // available_at (write-after-read hazards are not modeled).
  const double earliest = std::max(host.now(), src.available_at);
  const double done = stream.enqueue(earliest, duration);
  if (ClockSink* sink = host.sink()) {
    sink->on_enqueue(stream_index(stream), earliest, duration, done);
  }
  return duration;
}

double Device::copy_to_device_async_batched(
    std::span<const H2dCopy> blocks, std::span<const std::uint64_t> scopes,
    std::span<std::uint64_t> fault_ops, std::span<const char> skip,
    Stream& stream, SimClock& host) {
  MFGPU_CHECK(blocks.size() == scopes.size() &&
                  blocks.size() == fault_ops.size() &&
                  blocks.size() == skip.size(),
              "copy_to_device_async_batched: span size mismatch");
  double bytes = 0.0;
  double earliest_dep = 0.0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (skip[i] != 0) continue;
    injector_.resume_scope(scopes[i], fault_ops[i]);
    const FaultKind fault = injector_.sample(FaultSite::Transfer);
    fault_ops[i] = injector_.op_index();
    if (fault == FaultKind::DeviceDeath) throw_transfer_death();
    const H2dCopy& b = blocks[i];
    bytes += matrix_bytes(b.src.rows(), b.src.cols());
    if (options_.numeric) {
      land_upload(b.src,
                  device_block(*b.dst, b.i0, b.j0, b.src.rows(), b.src.cols()),
                  fault);
    }
    earliest_dep = std::max(earliest_dep, b.dst->available_at);
  }
  if (bytes == 0.0) return 0.0;
  bytes_transferred_ += bytes;
  CostClassScope cls(CostClass::Transfer);
  host.advance(transfer().enqueue_overhead);
  const double duration = transfer().async_copy_time(bytes);
  count_transfer("h2d", bytes, duration);
  const double earliest = std::max(host.now(), earliest_dep);
  const double done = stream.enqueue(earliest, duration);
  if (ClockSink* sink = host.sink()) {
    sink->on_enqueue(stream_index(stream), earliest, duration, done);
  }
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (skip[i] == 0) blocks[i].dst->available_at = done;
  }
  return duration;
}

double Device::copy_from_device_async_batched(
    std::span<const D2hCopy> blocks, std::span<const std::uint64_t> scopes,
    std::span<std::uint64_t> fault_ops, std::span<const char> skip,
    Stream& stream, SimClock& host) {
  MFGPU_CHECK(blocks.size() == scopes.size() &&
                  blocks.size() == fault_ops.size() &&
                  blocks.size() == skip.size(),
              "copy_from_device_async_batched: span size mismatch");
  double bytes = 0.0;
  double earliest_dep = 0.0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (skip[i] != 0) continue;
    injector_.resume_scope(scopes[i], fault_ops[i]);
    const FaultKind fault = injector_.sample(FaultSite::Transfer);
    fault_ops[i] = injector_.op_index();
    if (fault == FaultKind::DeviceDeath) throw_transfer_death();
    const D2hCopy& b = blocks[i];
    bytes += matrix_bytes(b.dst.rows(), b.dst.cols());
    if (options_.numeric) {
      land_download(b.src->data.block(b.i0, b.j0, b.dst.rows(), b.dst.cols()),
                    b.dst, fault);
    }
    earliest_dep = std::max(earliest_dep, b.src->available_at);
  }
  if (bytes == 0.0) return 0.0;
  bytes_transferred_ += bytes;
  CostClassScope cls(CostClass::Transfer);
  host.advance(transfer().enqueue_overhead);
  const double duration = transfer().async_copy_time(bytes);
  count_transfer("d2h", bytes, duration);
  // Reads only: the coalesced copy waits for every producer but does not
  // bump any available_at (write-after-read hazards are not modeled).
  const double earliest = std::max(host.now(), earliest_dep);
  const double done = stream.enqueue(earliest, duration);
  if (ClockSink* sink = host.sink()) {
    sink->on_enqueue(stream_index(stream), earliest, duration, done);
  }
  return duration;
}

void Device::synchronize(SimClock& host) {
  for (const auto& s : streams_) {
    CostClassScope cls(stream_stall_class(s));
    host.advance_to(s.ready_at());
  }
}

void Device::release_storage() { storage_.clear(); }

void Device::reset() {
  release_storage();
  for (auto& s : streams_) s.reset();
  device_pool_.reset();
  pinned_pool_.reset();
  injector_.reset();
  bytes_transferred_ = 0.0;
}

}  // namespace mfgpu
