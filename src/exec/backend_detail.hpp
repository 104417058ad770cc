// Shared tile plumbing for the compiled backend's translation units.
//
// backend.cpp (scatter, tiling, dispatch) and the per-ISA kernel TUs
// (backend_w1/w2/avx2/avx512.cpp) all address the same lane-major register
// tile and arranged memory image; the structs and address math live here so
// they agree by construction.  reg/mem_ref are force-inlined for the same
// ODR reason as simd.hpp: they are compiled under different target flags per
// TU.
#pragma once

#include <cstddef>
#include <cstdint>

#include "bulk/layout.hpp"
#include "common/types.hpp"
#include "exec/compiled_program.hpp"
#include "trace/alu_ops.hpp"

namespace obx::exec::detail {

/// One lane tile: a window of `len` consecutive lanes starting at `base`,
/// with an L1-resident lane-major register tile (register r of tile lane j at
/// regs[r * cap + j]).
struct Tile {
  Word* regs = nullptr;
  std::size_t cap = 0;
  std::size_t len = 0;
  Word* mem = nullptr;
  std::size_t p = 0;
  std::size_t n = 0;
  std::size_t block = 0;
  bulk::Arrangement arr = bulk::Arrangement::kColumnWise;
  std::size_t base = 0;
};

OBX_ALWAYS_INLINE Word* reg(const Tile& t, std::uint8_t r) {
  return t.regs + std::size_t{r} * t.cap;
}

/// Tile-lane j of canonical address a lives at ptr[j * stride].  Valid because
/// a tile never spans a blocked layout's block boundary.
struct MemRef {
  Word* ptr = nullptr;
  std::size_t stride = 1;
};

OBX_ALWAYS_INLINE MemRef mem_ref(const Tile& t, Addr a) {
  switch (t.arr) {
    case bulk::Arrangement::kColumnWise:
      return {t.mem + std::size_t{a} * t.p + t.base, 1};
    case bulk::Arrangement::kRowWise:
      return {t.mem + t.base * t.n + a, t.n};
    case bulk::Arrangement::kBlocked:
      return {t.mem + (t.base / t.block) * (t.n * t.block) + std::size_t{a} * t.block +
                  t.base % t.block,
              1};
    case bulk::Arrangement::kConflictFree:
      // Padded column layout: t.block carries the pad stride.
      return {t.mem + (std::size_t{a} * t.p + t.base) * t.block, t.block};
  }
  return {};
}

/// Lane-to-lane word distance of the tile's arrangement — the stride every
/// MemRef of this tile shares (1 for column-wise/blocked, n for row-wise,
/// the pad stride for conflict-free).
OBX_ALWAYS_INLINE std::size_t lane_word_stride(const Tile& t) {
  switch (t.arr) {
    case bulk::Arrangement::kRowWise:
      return t.n;
    case bulk::Arrangement::kConflictFree:
      return t.block;
    default:
      return 1;
  }
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
