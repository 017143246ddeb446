// The simulated GPU: streams, device memory pools, and PCIe transfers.
//
// Device substitutes for the paper's Tesla T10. Numerics are real (kernels
// execute on the host in single precision — the precision the paper uses on
// the T10, trading accuracy for its 8x SP/DP throughput gap and recovering
// it with iterative refinement); time is virtual, charged against the
// calibrated cost models.
//
// All copy/allocate methods return the model *duration* of the operation in
// seconds so executors can attribute component times in the trace; the
// effect on the clocks/streams is applied internally.
//
// Thread affinity: a Device (with its streams, pools, and clocks) has no
// internal synchronization and must be driven by one thread at a time. The
// parallel numeric engine (multifrontal/parallel.hpp) therefore gives every
// GPU-bearing worker a private Device instance — like one CUDA context per
// host thread on the paper's hardware generation.
#pragma once

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "gpusim/clock.hpp"
#include "gpusim/cost_class.hpp"
#include "gpusim/cost_model.hpp"
#include "gpusim/fault_injector.hpp"
#include "gpusim/memory.hpp"
#include "gpusim/stream.hpp"

namespace mfgpu {

class Device {
 public:
  struct Options {
    ProcessorModel gpu = tesla_t10_model();
    TransferModel transfer = pcie_x8_model();
    std::int64_t memory_bytes = std::int64_t{4} * 1024 * 1024 * 1024;
    bool pool_reuse = true;  ///< the paper's high-water-mark policy (§V-A2)
    bool numeric = true;     ///< execute kernels numerically (off = dry runs)
    /// Deterministic fault injection (all rates 0 = no faults, no overhead).
    FaultInjectorOptions faults;
  };

  Device();
  explicit Device(Options options);

  const ProcessorModel& model() const noexcept { return options_.gpu; }
  const TransferModel& transfer() const noexcept { return options_.transfer; }
  bool numeric() const noexcept { return options_.numeric; }

  /// This device's fault source. All gpublas kernel launches, transfers,
  /// and pool acquires sample it; see gpusim/fault_injector.hpp for the
  /// determinism contract.
  FaultInjector& fault_injector() noexcept { return injector_; }
  const FaultInjector& fault_injector() const noexcept { return injector_; }

  /// Default streams: compute, host-to-device copy, device-to-host copy.
  Stream& compute_stream() noexcept { return streams_[0]; }
  Stream& h2d_stream() noexcept { return streams_[1]; }
  Stream& d2h_stream() noexcept { return streams_[2]; }

  /// Index of one of this device's streams (0 = compute, 1 = h2d,
  /// 2 = d2h; -1 for a foreign stream). Used by the schedule recorder to
  /// key replayable stream timelines.
  int stream_index(const Stream& stream) const noexcept {
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      if (&streams_[i] == &stream) return static_cast<int>(i);
    }
    return -1;
  }

  /// Cost class of a stall on one of this device's streams: compute-stream
  /// stalls are bounded by kernel time (Gpu), copy-stream stalls by the
  /// link (Transfer).
  CostClass stream_stall_class(const Stream& stream) const noexcept {
    return (&stream == &streams_[0]) ? CostClass::Gpu : CostClass::Transfer;
  }

  /// Allocate a device matrix in the named pool slot, charging the host
  /// clock for the (possibly pooled-away) cudaMalloc-equivalent; pricing is
  /// per slot name. In numeric mode the matrix views the storage of the
  /// slot's role: the policy slots share it across P2–P4 by the name after
  /// the policy prefix ("p2.prod", "p3.prod" and "p4.prod" view one
  /// buffer), while P4's panel and the batch.* slabs keep their own. The
  /// storage is kept at the role's high-water size until release_storage():
  /// its contents are what the role last held (zero when it grows), so an
  /// upload or a kernel with beta 0 must define every entry that is read. A
  /// later allocate in a slot of the same role invalidates the matrix.
  DeviceMatrix allocate(index_t rows, index_t cols, const std::string& slot,
                        SimClock& host);
  /// allocate() without the matrix: charges the pool slot exactly as
  /// allocate() does (fault draw, high-water growth) and returns the
  /// seconds charged. Pool warm-up uses it so that sizing a slot never
  /// materializes storage.
  double reserve(index_t rows, index_t cols, const std::string& slot,
                 SimClock& host);

  /// Charge the host for staging `bytes` of pinned memory in `slot`
  /// (required for async copies; pooled like device memory). Returns the
  /// seconds charged (0 when the high-water slot already fits).
  double acquire_pinned(const std::string& slot, std::int64_t bytes,
                        SimClock& host);

  /// Synchronous pageable-memory copies: block the host clock. `dst`/`src`
  /// name a block inside the device matrix at (i0, j0).
  ///
  /// Device-to-host copies with a null-data `dst` are priced exactly like
  /// any other (its shape sets the bytes), but in numeric mode the host
  /// then reads the device block in place instead of a converted copy:
  /// an injected corruption poisons element (0, 0) of that block. Dry runs
  /// pass such views too, and move no data at all.
  double copy_to_device_sync(MatrixView<const double> src, DeviceMatrix& dst,
                             index_t i0, index_t j0, SimClock& host);
  double copy_from_device_sync(const DeviceMatrix& src, index_t i0, index_t j0,
                               MatrixView<double> dst, SimClock& host);

  /// Asynchronous pinned-memory copies on `stream`: the host clock only
  /// pays the enqueue overhead. Caller must have acquired pinned staging
  /// and must synchronize before consuming the destination (or, for a
  /// null-data `dst`, the device block it reads in place).
  double copy_to_device_async(MatrixView<const double> src, DeviceMatrix& dst,
                              index_t i0, index_t j0, Stream& stream,
                              SimClock& host);
  double copy_from_device_async(const DeviceMatrix& src, index_t i0,
                                index_t j0, MatrixView<double> dst,
                                Stream& stream, SimClock& host);

  /// One member block of a batched (coalesced) transfer.
  struct H2dCopy {
    MatrixView<const double> src;
    DeviceMatrix* dst = nullptr;
    index_t i0 = 0, j0 = 0;
  };
  struct D2hCopy {
    const DeviceMatrix* src = nullptr;
    index_t i0 = 0, j0 = 0;
    MatrixView<double> dst;
  };

  /// Coalesced async copies: every member block moves in ONE simulated
  /// transfer — one enqueue overhead on the host, one transfer latency,
  /// summed bytes at async bandwidth. This is the amortization the batched
  /// execution path buys (per-front async copies each pay latency +
  /// enqueue). Fault injection samples per member under its own scope
  /// (`scopes[i]`, resumed at `fault_ops[i]`): corruption poisons that
  /// member only, death throws sticky. Members with `skip[i] != 0` move no
  /// data and charge nothing.
  double copy_to_device_async_batched(std::span<const H2dCopy> blocks,
                                      std::span<const std::uint64_t> scopes,
                                      std::span<std::uint64_t> fault_ops,
                                      std::span<const char> skip,
                                      Stream& stream, SimClock& host);
  double copy_from_device_async_batched(std::span<const D2hCopy> blocks,
                                        std::span<const std::uint64_t> scopes,
                                        std::span<std::uint64_t> fault_ops,
                                        std::span<const char> skip,
                                        Stream& stream, SimClock& host);

  /// cudaEventRecord / cudaDeviceSynchronize equivalents.
  Event record(const Stream& stream) const { return Event{stream.ready_at()}; }
  void synchronize(SimClock& host);
  void synchronize_stream(const Stream& stream, SimClock& host) {
    CostClassScope cls(stream_stall_class(stream));
    host.advance_to(stream.ready_at());
  }

  const PoolStats& device_pool_stats() const noexcept {
    return device_pool_.stats();
  }
  const PoolStats& pinned_pool_stats() const noexcept {
    return pinned_pool_.stats();
  }
  /// Total bytes moved over the (simulated) PCIe link so far.
  double bytes_transferred() const noexcept { return bytes_transferred_; }

  /// Free every slot's storage (the pools' high-water marks, which price
  /// allocations, are kept). The drivers call it when a factorization ends,
  /// so an idle device holds no matrix memory.
  void release_storage();

  void reset();

 private:
  MatrixView<float> device_block(DeviceMatrix& m, index_t i0, index_t j0,
                                 index_t rows, index_t cols) const;

  /// Draw the fault outcome for one pool acquire; throws on injected OOM
  /// or device death.
  void check_alloc_fault(const char* what);

  Options options_;
  std::vector<Stream> streams_;
  MemoryPool device_pool_;
  MemoryPool pinned_pool_;
  /// Host memory behind each slot role's device matrices (numeric mode).
  std::unordered_map<std::string, std::vector<float>> storage_;
  FaultInjector injector_;
  double bytes_transferred_ = 0.0;
};

}  // namespace mfgpu
