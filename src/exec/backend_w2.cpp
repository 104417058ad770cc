// Baseline 128-bit compiled-backend kernels (W = 2 words): SSE2 on x86-64,
// AdvSIMD/NEON on AArch64 — both guaranteed by the base ABI, so this TU is
// built with the project's default flags and needs no runtime gate beyond
// active_simd_isa() choosing it.
#include "exec/backend_detail.hpp"
#include "exec/backend_kernels.hpp"

namespace obx::exec::detail {

void exec_segment_w2(const Tile& t, const CompiledProgram::Segment& seg) {
  kernels::exec_segment_w<2>(t, seg);
}

}  // namespace obx::exec::detail
