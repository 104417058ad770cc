// W-templated bodies of every compiled-backend kernel.
//
// Each kernel walks its tile W lanes at a time (Vec<W> main loop) and
// finishes the ragged tail scalar (the same body instantiated at V = 1), so
// any tile length is legal at any width.  Per-lane semantics are exactly the
// scalar engine's: every element goes through trace::apply_one, and a lane's
// result never depends on another lane's (obliviousness means no cross-lane
// data flow inside a fused op — the only carried state, the triple-run
// accumulator, is carried per lane in the vector register).
//
// This header is included by the per-ISA translation units only
// (backend_w1/w2/avx2/avx512.cpp).  Everything here is `static` so each TU
// compiles its own copy under its own target flags: a symbol with external
// or inline linkage could be linker-folded across TUs, handing a baseline
// CPU an AVX-512 body.  Each TU instantiates exactly one width W.
#pragma once

#include <cstddef>

#include "exec/backend_detail.hpp"
#include "exec/simd.hpp"
#include "opt/fusion.hpp"
#include "trace/alu_ops.hpp"

namespace obx::exec::detail {

namespace kernels {

using opt::FusedKind;
using opt::FusedOp;
using trace::Op;
using trace::Step;
using trace::StepKind;

/// Lockstep ALU over register columns with the opcode already resolved: the
/// shared inner loop of kAlu and the ALU steps of kRegRun.
template <Op OP, std::size_t W>
static OBX_ALWAYS_INLINE void alu_sweep_op(Word* d, const Word* a, const Word* b,
                                           const Word* c, std::size_t len) {
  std::size_t j = 0;
  for (; j + W <= len; j += W) {
    vapply<OP, W>(Vec<W>::load(a + j), Vec<W>::load(b + j), Vec<W>::load(c + j),
                  Vec<W>::load(d + j))
        .store(d + j);
  }
  for (; j < len; ++j) d[j] = trace::apply_one<OP>(a[j], b[j], c[j], d[j]);
}

template <std::size_t W>
static OBX_ALWAYS_INLINE void alu_sweep(Op op, Word* d, const Word* a, const Word* b,
                                        const Word* c, std::size_t len) {
  dispatch_op(op, [&](auto opc) {
    alu_sweep_op<decltype(opc)::value, W>(d, a, b, c, len);
  });
}

// ---------------------------------------------------------------------------
// Singleton kernels.

template <std::size_t W>
static void k_load(const Tile& t, const FusedOp& f) {
  if ((f.flags & opt::kElideAuxCommit) != 0) return;  // dead value: skip entirely
  const Word* m = mem_ref(t, f.addr);
  Word* d = reg(t, f.aux);
  std::size_t j = 0;
  for (; j + W <= t.len; j += W) Vec<W>::load(m + j).store(d + j);
  for (; j < t.len; ++j) d[j] = m[j];
}

template <std::size_t W>
static void k_store(const Tile& t, const FusedOp& f) {
  Word* m = mem_ref(t, f.addr2);
  const Word* s = reg(t, f.aux);
  std::size_t j = 0;
  for (; j + W <= t.len; j += W) Vec<W>::load(s + j).store(m + j);
  for (; j < t.len; ++j) m[j] = s[j];
}

template <std::size_t W>
static void k_imm(const Tile& t, const FusedOp& f) {
  if ((f.flags & opt::kElideAuxCommit) != 0) return;
  Word* d = reg(t, f.aux);
  const Vec<W> iv = Vec<W>::splat(f.imm);
  std::size_t j = 0;
  for (; j + W <= t.len; j += W) iv.store(d + j);
  for (; j < t.len; ++j) d[j] = f.imm;
}

template <Op OP, std::size_t W>
static void k_alu_op(const Tile& t, const FusedOp& f) {
  alu_sweep_op<OP, W>(reg(t, f.dst), reg(t, f.src0), reg(t, f.src1), reg(t, f.src2),
                      t.len);
}

template <std::size_t W>
static void k_alu(const Tile& t, const FusedOp& f) {
  dispatch_op(f.op, [&](auto opc) { k_alu_op<decltype(opc)::value, W>(t, f); });
}

// ---------------------------------------------------------------------------
// Pair / triple kernels.  In-group consumers of the produced value (the
// loaded word, the immediate, the ALU result) are fed by value forwarding,
// so an elided register commit never changes what the group computes.  The
// forwarding selectors are uniform across the tile, so a vector group just
// selects between whole Vec values.

template <Op OP, std::size_t V>
static OBX_ALWAYS_INLINE void imm_alu_step(Word* ir, Word* d, const Word* a,
                                           const Word* b, const Word* c, Vec<V> iv,
                                           bool commit, bool s0f, bool s1f, bool s2f,
                                           bool ddf, std::size_t j) {
  if (commit) iv.store(ir + j);
  const Vec<V> av = s0f ? iv : Vec<V>::load(a + j);
  const Vec<V> bv = s1f ? iv : Vec<V>::load(b + j);
  const Vec<V> cv = s2f ? iv : Vec<V>::load(c + j);
  const Vec<V> dv = ddf ? iv : Vec<V>::load(d + j);
  vapply<OP, V>(av, bv, cv, dv).store(d + j);
}

template <Op OP, std::size_t W>
static void k_imm_alu_op(const Tile& t, const FusedOp& f) {
  Word* ir = reg(t, f.aux);
  Word* d = reg(t, f.dst);
  const Word* a = reg(t, f.src0);
  const Word* b = reg(t, f.src1);
  const Word* c = reg(t, f.src2);
  const bool commit = (f.flags & opt::kElideAuxCommit) == 0;
  const bool s0f = f.src0 == f.aux;
  const bool s1f = f.src1 == f.aux;
  const bool s2f = f.src2 == f.aux;
  const bool ddf = f.dst == f.aux;
  const Vec<W> ivw = Vec<W>::splat(f.imm);
  const Vec<1> iv1 = Vec<1>::splat(f.imm);
  std::size_t j = 0;
  for (; j + W <= t.len; j += W)
    imm_alu_step<OP, W>(ir, d, a, b, c, ivw, commit, s0f, s1f, s2f, ddf, j);
  for (; j < t.len; ++j)
    imm_alu_step<OP, 1>(ir, d, a, b, c, iv1, commit, s0f, s1f, s2f, ddf, j);
}

template <std::size_t W>
static void k_imm_alu(const Tile& t, const FusedOp& f) {
  dispatch_op(f.op, [&](auto opc) { k_imm_alu_op<decltype(opc)::value, W>(t, f); });
}

template <Op OP, std::size_t V>
static OBX_ALWAYS_INLINE void load_alu_step(const Word* m, Word* lr, Word* d,
                                            const Word* a, const Word* b, const Word* c,
                                            bool commit, bool s0f, bool s1f, bool s2f,
                                            bool ddf, std::size_t j) {
  const Vec<V> tt = Vec<V>::load(m + j);
  if (commit) tt.store(lr + j);
  const Vec<V> av = s0f ? tt : Vec<V>::load(a + j);
  const Vec<V> bv = s1f ? tt : Vec<V>::load(b + j);
  const Vec<V> cv = s2f ? tt : Vec<V>::load(c + j);
  const Vec<V> dv = ddf ? tt : Vec<V>::load(d + j);
  vapply<OP, V>(av, bv, cv, dv).store(d + j);
}

template <Op OP, std::size_t W>
static void k_load_alu_op(const Tile& t, const FusedOp& f) {
  const Word* m = mem_ref(t, f.addr);
  Word* lr = reg(t, f.aux);
  Word* d = reg(t, f.dst);
  const Word* a = reg(t, f.src0);
  const Word* b = reg(t, f.src1);
  const Word* c = reg(t, f.src2);
  const bool commit = (f.flags & opt::kElideAuxCommit) == 0;
  const bool s0f = f.src0 == f.aux;
  const bool s1f = f.src1 == f.aux;
  const bool s2f = f.src2 == f.aux;
  const bool ddf = f.dst == f.aux;
  std::size_t j = 0;
  for (; j + W <= t.len; j += W)
    load_alu_step<OP, W>(m, lr, d, a, b, c, commit, s0f, s1f, s2f, ddf, j);
  for (; j < t.len; ++j)
    load_alu_step<OP, 1>(m, lr, d, a, b, c, commit, s0f, s1f, s2f, ddf, j);
}

template <std::size_t W>
static void k_load_alu(const Tile& t, const FusedOp& f) {
  dispatch_op(f.op, [&](auto opc) { k_load_alu_op<decltype(opc)::value, W>(t, f); });
}

template <Op OP, std::size_t V>
static OBX_ALWAYS_INLINE void alu_store_step(Word* m, Word* d, const Word* a,
                                             const Word* b, const Word* c, const Word* s,
                                             bool sfwd, std::size_t j) {
  const Vec<V> v = vapply<OP, V>(Vec<V>::load(a + j), Vec<V>::load(b + j),
                                 Vec<V>::load(c + j), Vec<V>::load(d + j));
  v.store(d + j);
  const Vec<V> sv = sfwd ? v : Vec<V>::load(s + j);
  sv.store(m + j);
}

template <Op OP, std::size_t W>
static void k_alu_store_op(const Tile& t, const FusedOp& f) {
  Word* m = mem_ref(t, f.addr2);
  Word* d = reg(t, f.dst);
  const Word* a = reg(t, f.src0);
  const Word* b = reg(t, f.src1);
  const Word* c = reg(t, f.src2);
  const Word* s = reg(t, f.aux);
  const bool sfwd = f.aux == f.dst;
  std::size_t j = 0;
  for (; j + W <= t.len; j += W) alu_store_step<OP, W>(m, d, a, b, c, s, sfwd, j);
  for (; j < t.len; ++j) alu_store_step<OP, 1>(m, d, a, b, c, s, sfwd, j);
}

template <std::size_t W>
static void k_alu_store(const Tile& t, const FusedOp& f) {
  dispatch_op(f.op, [&](auto opc) { k_alu_store_op<decltype(opc)::value, W>(t, f); });
}

template <Op OP, std::size_t V>
static OBX_ALWAYS_INLINE void load_alu_store_step(const Word* in, Word* out,
                                                  Word* lr, Word* d, const Word* a,
                                                  const Word* b, const Word* c,
                                                  const Word* s, bool commit, bool s0f,
                                                  bool s1f, bool s2f, bool ddf, bool st_v,
                                                  bool st_t, std::size_t j) {
  const Vec<V> tt = Vec<V>::load(in + j);
  if (commit) tt.store(lr + j);
  const Vec<V> av = s0f ? tt : Vec<V>::load(a + j);
  const Vec<V> bv = s1f ? tt : Vec<V>::load(b + j);
  const Vec<V> cv = s2f ? tt : Vec<V>::load(c + j);
  const Vec<V> dv = ddf ? tt : Vec<V>::load(d + j);
  const Vec<V> v = vapply<OP, V>(av, bv, cv, dv);
  v.store(d + j);
  const Vec<V> sv = st_v ? v : (st_t ? tt : Vec<V>::load(s + j));
  sv.store(out + j);
}

template <Op OP, std::size_t W>
static void k_load_alu_store_op(const Tile& t, const FusedOp& f) {
  const Word* in = mem_ref(t, f.addr);
  Word* out = mem_ref(t, f.addr2);
  Word* lr = reg(t, f.aux);
  Word* d = reg(t, f.dst);
  const Word* a = reg(t, f.src0);
  const Word* b = reg(t, f.src1);
  const Word* c = reg(t, f.src2);
  const Word* s = reg(t, f.aux2);
  const bool commit = (f.flags & opt::kElideAuxCommit) == 0;
  const bool s0f = f.src0 == f.aux;
  const bool s1f = f.src1 == f.aux;
  const bool s2f = f.src2 == f.aux;
  const bool ddf = f.dst == f.aux;
  const bool st_v = f.aux2 == f.dst;  // store sees the ALU result
  const bool st_t = f.aux2 == f.aux;  // store sees the loaded word
  std::size_t j = 0;
  for (; j + W <= t.len; j += W) {
    load_alu_store_step<OP, W>(in, out, lr, d, a, b, c, s, commit, s0f, s1f, s2f, ddf,
                               st_v, st_t, j);
  }
  for (; j < t.len; ++j) {
    load_alu_store_step<OP, 1>(in, out, lr, d, a, b, c, s, commit, s0f, s1f, s2f, ddf,
                               st_v, st_t, j);
  }
}

template <std::size_t W>
static void k_load_alu_store(const Tile& t, const FusedOp& f) {
  dispatch_op(f.op,
              [&](auto opc) { k_load_alu_store_op<decltype(opc)::value, W>(t, f); });
}

// ---------------------------------------------------------------------------
// Run kernels.

/// A run of register-only steps, executed step-outer over the L1-resident
/// register tile (the tile is the whole point: every sweep hits L1).
template <std::size_t W>
static void k_reg_run(const Tile& t, const FusedOp& f, const Step* body) {
  for (std::uint32_t k = 0; k < f.run_len; ++k) {
    const Step& s = body[k];
    if (s.kind == StepKind::kImm) {
      Word* d = reg(t, s.dst);
      const Vec<W> iv = Vec<W>::splat(s.imm);
      std::size_t j = 0;
      for (; j + W <= t.len; j += W) iv.store(d + j);
      for (; j < t.len; ++j) d[j] = s.imm;
    } else {
      alu_sweep<W>(s.op, reg(t, s.dst), reg(t, s.src0), reg(t, s.src1), reg(t, s.src2),
                   t.len);
    }
  }
}

/// GW consecutive triples of a kTripleRun for V lanes: the V accumulators are
/// read from and written back to their register column once per GW triples
/// and carried in a vector register in between — the scan/reduction fast
/// path.  COMMIT (last group of a run with a live loaded register) also
/// commits the final loaded words; a template parameter so the hot
/// non-committing loop has no conditional store.
template <Op OP, int GW, bool COMMIT, std::size_t V>
static OBX_ALWAYS_INLINE void triple_group_step(Word* acc, Word* ldr, Word* const* in,
                                                Word* const* out, bool s0l, bool s1l,
                                                std::size_t j) {
  Vec<V> v = Vec<V>::load(acc + j);
  Vec<V> tt = Vec<V>::splat(0);
  for (int w = 0; w < GW; ++w) {
    tt = Vec<V>::load(in[w] + j);
    const Vec<V> a = s0l ? tt : v;
    const Vec<V> b = s1l ? tt : v;
    v = vapply<OP, V>(a, b, Vec<V>::splat(0), v);
    v.store(out[w] + j);
  }
  v.store(acc + j);
  if constexpr (COMMIT) tt.store(ldr + j);
  else (void)ldr;
}

template <Op OP, int GW, bool COMMIT, std::size_t W>
static void k_triple_group(const Tile& t, Word* acc, Word* ldr, Word* const* in,
                           Word* const* out, bool s0l, bool s1l) {
  std::size_t j = 0;
  for (; j + W <= t.len; j += W) {
    triple_group_step<OP, GW, COMMIT, W>(acc, ldr, in, out, s0l, s1l, j);
  }
  for (; j < t.len; ++j) {
    triple_group_step<OP, GW, COMMIT, 1>(acc, ldr, in, out, s0l, s1l, j);
  }
}

template <Op OP, std::size_t W>
static void k_triple_run_op(const Tile& t, const FusedOp& f, const Step* body) {
  constexpr int kGw = 8;
  Word* acc = reg(t, f.dst);
  Word* ldr = reg(t, f.aux);
  const bool s0l = (f.flags & opt::kTripleS0Loaded) != 0;
  const bool s1l = (f.flags & opt::kTripleS1Loaded) != 0;
  const bool want_ld = (f.flags & opt::kElideAuxCommit) == 0;
  const std::size_t runs = f.run_len;
  Word* in[kGw];
  Word* out[kGw];
  std::size_t k = 0;
  for (; k + kGw <= runs; k += kGw) {
    for (int w = 0; w < kGw; ++w) {
      const std::size_t base = (k + static_cast<std::size_t>(w)) * 3;
      in[w] = mem_ref(t, body[base].addr);
      out[w] = mem_ref(t, body[base + 2].addr);
    }
    if (want_ld && k + kGw == runs) {
      k_triple_group<OP, kGw, true, W>(t, acc, ldr, in, out, s0l, s1l);
    } else {
      k_triple_group<OP, kGw, false, W>(t, acc, ldr, in, out, s0l, s1l);
    }
  }
  for (; k < runs; ++k) {
    in[0] = mem_ref(t, body[k * 3].addr);
    out[0] = mem_ref(t, body[k * 3 + 2].addr);
    if (want_ld && k + 1 == runs) {
      k_triple_group<OP, 1, true, W>(t, acc, ldr, in, out, s0l, s1l);
    } else {
      k_triple_group<OP, 1, false, W>(t, acc, ldr, in, out, s0l, s1l);
    }
  }
}

template <std::size_t W>
static void k_triple_run(const Tile& t, const FusedOp& f, const Step* body) {
  dispatch_op(f.op,
              [&](auto opc) { k_triple_run_op<decltype(opc)::value, W>(t, f, body); });
}

// ---------------------------------------------------------------------------

template <std::size_t W>
static void exec_segment_w(const Tile& t, const CompiledProgram::Segment& seg) {
  const Step* runs = seg.run_steps.data();
  for (const FusedOp& f : seg.ops) {
    switch (f.kind) {
      case FusedKind::kLoad: k_load<W>(t, f); break;
      case FusedKind::kStore: k_store<W>(t, f); break;
      case FusedKind::kImm: k_imm<W>(t, f); break;
      case FusedKind::kAlu: k_alu<W>(t, f); break;
      case FusedKind::kImmAlu: k_imm_alu<W>(t, f); break;
      case FusedKind::kLoadAlu: k_load_alu<W>(t, f); break;
      case FusedKind::kAluStore: k_alu_store<W>(t, f); break;
      case FusedKind::kLoadAluStore: k_load_alu_store<W>(t, f); break;
      case FusedKind::kRegRun: k_reg_run<W>(t, f, runs + f.run_begin); break;
      case FusedKind::kTripleRun: k_triple_run<W>(t, f, runs + f.run_begin); break;
    }
  }
}

}  // namespace kernels

}  // namespace obx::exec::detail
