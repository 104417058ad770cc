// Scalar (W = 1) compiled-backend kernels: the reference engine every SIMD
// tier must match bit-for-bit, and the OBX_SIMD=scalar escape hatch.  Built
// with the project's default flags.
#include "exec/backend_detail.hpp"
#include "exec/backend_kernels.hpp"

namespace obx::exec::detail {

void exec_segment_w1(const Tile& t, const CompiledProgram::Segment& seg) {
  kernels::exec_segment_w<1>(t, seg);
}

}  // namespace obx::exec::detail
