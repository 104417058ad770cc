// AVX2 compiled-backend kernels (W = 4 words per 256-bit vector).  Only in
// the build when the compiler accepts -mavx2 (see src/exec/CMakeLists.txt);
// only called when the CPU reports AVX2 (see run_compiled_chunk).
#include "exec/backend_detail.hpp"
#include "exec/backend_kernels.hpp"

namespace obx::exec::detail {

void exec_segment_avx2(const Tile& t, const CompiledProgram::Segment& seg) {
  kernels::exec_segment_w<4>(t, seg);
}

}  // namespace obx::exec::detail
