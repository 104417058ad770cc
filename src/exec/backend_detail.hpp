// Shared tile plumbing for the compiled backend's translation units.
//
// backend.cpp (scatter, tiling, dispatch) and the per-ISA kernel TUs
// (backend_w1/w2/avx2/avx512.cpp) all address the same lane-major register
// tile and column-wise memory image; the structs and address math live here
// so they agree by construction.  reg/mem_ref are force-inlined for the same
// ODR reason as simd.hpp: they are compiled under different target flags per
// TU.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.hpp"
#include "exec/compiled_program.hpp"
#include "trace/alu_ops.hpp"

namespace obx::exec::detail {

/// One lane tile: a window of `len` consecutive lanes starting at `base`,
/// with an L1-resident lane-major register tile (register r of tile lane j at
/// regs[r * cap + j]) over the column-wise memory image of `p` lanes.
struct Tile {
  Word* regs = nullptr;
  std::size_t cap = 0;
  std::size_t len = 0;
  Word* mem = nullptr;
  std::size_t p = 0;
  std::size_t base = 0;
};

OBX_ALWAYS_INLINE Word* reg(const Tile& t, std::uint8_t r) {
  return t.regs + std::size_t{r} * t.cap;
}

/// Canonical address a of tile lane j lives at mem_ref(t, a)[j]: the memory
/// image is column-wise, so a tile's words of one address are contiguous.
OBX_ALWAYS_INLINE Word* mem_ref(const Tile& t, Addr a) {
  return t.mem + std::size_t{a} * t.p + t.base;
}

// Per-ISA segment bodies.  Each is defined in exactly one translation unit,
// compiled with that ISA's target flags, and instantiates exactly one vector
// width W — so no wide-vector code can be linker-folded into a baseline
// caller.  w1 is the scalar engine (no lane grouping); w2 is the baseline
// 128-bit engine (SSE2 on x86-64, AdvSIMD on AArch64, both on by default).
void exec_segment_w1(const Tile& t, const CompiledProgram::Segment& seg);
void exec_segment_w2(const Tile& t, const CompiledProgram::Segment& seg);
#if defined(OBX_SIMD_HAVE_AVX2)
void exec_segment_avx2(const Tile& t, const CompiledProgram::Segment& seg);
#endif
#if defined(OBX_SIMD_HAVE_AVX512)
void exec_segment_avx512(const Tile& t, const CompiledProgram::Segment& seg);
#endif

}  // namespace obx::exec::detail
