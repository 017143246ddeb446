// Ablation — the panel width w of the Fig. 9 on-GPU blocked potrf. Narrow
// panels keep the light-weight potrf kernel cheap but starve the trailing
// trsm/syrk/gemm of shape efficiency and multiply launch overheads; wide
// panels do the opposite. The auto width (k/32 clamped to [64, 512]) should
// sit near the sweet spot across pivot-block sizes.
#include "common.hpp"

#include "policy/p4_gpu_potrf.hpp"

using namespace mfgpu;

namespace {

double p4_time(index_t m, index_t k, index_t width) {
  Device::Options dry;
  dry.numeric = false;
  Device device(dry);
  SimClock host;
  DeviceMatrix panel = device.allocate(k + m, k, "panel", host);
  DeviceMatrix prod = device.allocate(m, m, "prod", host);
  GpuExec exec{&device, &device.compute_stream(), &host};
  return p4_factor_on_gpu(exec, panel, (m > 0) ? &prod : nullptr, m, k, width,
                          0)
      .total();
}

}  // namespace

int main() {
  Table table("Ablation — P4 panel width (kernel time, s)",
              {"front (m, k)", "w=32", "w=64", "w=128", "w=256", "w=512",
               "auto w", "auto time"});
  const std::pair<index_t, index_t> fronts[] = {
      {0, 1000}, {0, 5000}, {2000, 1000}, {8000, 4000}};
  for (const auto& [m, k] : fronts) {
    const index_t auto_w = p4_auto_panel_width(k, m);
    std::string front = "(";
    front.append(std::to_string(m)).append(", ").append(std::to_string(k));
    front.append(")");
    table.add_row({front,
                   p4_time(m, k, 32), p4_time(m, k, 64), p4_time(m, k, 128),
                   p4_time(m, k, 256), p4_time(m, k, 512),
                   static_cast<index_t>(auto_w), p4_time(m, k, auto_w)});
  }
  bench::emit(table, "ablation_panel_width.csv");
  std::printf(
      "note: under the simulator's kernel model alone, wider panels keep "
      "winning (shape efficiency + fewer launches dominate; the w x w "
      "potrf kernel only bites for m = 0 fronts). The shipped auto width "
      "(k/32, clamped) is deliberately narrower: it reproduces the paper's "
      "observed P3 -> P4 transition at ~9e10 ops, standing in for all-GPU "
      "pipeline costs the component model does not capture — see "
      "EXPERIMENTS.md.\n");
  return 0;
}
