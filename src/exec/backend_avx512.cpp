// AVX-512 compiled-backend kernels (W = 8 words per 512-bit vector).  Only
// in the build when the compiler accepts -mavx512f (see
// src/exec/CMakeLists.txt); only called when the CPU reports
// AVX512F/DQ/BW/VL (see run_compiled_chunk).
#include "exec/backend_detail.hpp"
#include "exec/backend_kernels.hpp"

namespace obx::exec::detail {

void exec_segment_avx512(const Tile& t, const CompiledProgram::Segment& seg) {
  kernels::exec_segment_w<8>(t, seg);
}

}  // namespace obx::exec::detail
