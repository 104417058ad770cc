// Portable fixed-width vector layer for the lane-vectorized backend.
//
// Vec<W> is W lockstep lanes' worth of one register: a plain Word array with
// always-inlined per-element load/store/splat and a vapply that maps
// trace::apply_one across the elements.  There are deliberately no
// intrinsics here — every translation unit that instantiates a width is
// compiled with the matching target flags (see src/exec/CMakeLists.txt), and
// GCC/Clang fully unroll and SLP-vectorize these fixed-trip-count loops into
// the natural vector instructions for that ISA.  Keeping the body portable
// C++ means one source of truth for all ISAs *and* bit-exact semantics: each
// element is computed by the same apply_one the scalar engines use (lane-wise
// IEEE doubles, unsigned two's-complement wrap), so vector and scalar runs
// are bit-identical by construction.
//
// Obliviousness is what makes this trivially correct: every lane executes the
// same Step sequence with the same addresses, so there are no divergence
// masks, no gathers from data-dependent addresses — just contiguous register
// and memory columns (the host's column-wise image puts the operand of lane
// j+1 next to lane j's).
//
// ODR note: everything here is force-inlined.  These templates are
// instantiated under different -m flags per TU; an out-of-line copy picked
// arbitrarily by the linker could carry instructions the running CPU lacks.
#pragma once

#include <cstddef>

#include "common/simd_isa.hpp"
#include "common/types.hpp"
#include "trace/alu_ops.hpp"

namespace obx::exec {

/// W lanes of one register, held in machine registers across a fused group.
template <std::size_t W>
struct Vec {
  Word v[W];

  static OBX_ALWAYS_INLINE Vec load(const Word* p) {
    Vec r;
    for (std::size_t i = 0; i < W; ++i) r.v[i] = p[i];
    return r;
  }
  static OBX_ALWAYS_INLINE Vec splat(Word x) {
    Vec r;
    for (std::size_t i = 0; i < W; ++i) r.v[i] = x;
    return r;
  }
  OBX_ALWAYS_INLINE void store(Word* p) const {
    for (std::size_t i = 0; i < W; ++i) p[i] = v[i];
  }
};

/// Element-wise apply_one: the full Op set (float ops lane-wise IEEE, integer
/// ops unsigned-wrap, cmov/select element-wise on the d operand).
template <trace::Op OP, std::size_t W>
OBX_ALWAYS_INLINE Vec<W> vapply(Vec<W> x, Vec<W> y, Vec<W> z, Vec<W> d) {
  Vec<W> r;
  for (std::size_t i = 0; i < W; ++i) {
    r.v[i] = trace::apply_one<OP>(x.v[i], y.v[i], z.v[i], d.v[i]);
  }
  return r;
}

}  // namespace obx::exec
