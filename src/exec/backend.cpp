#include "exec/backend.hpp"

#include <algorithm>
#include <bit>

#include "common/aligned.hpp"
#include "common/check.hpp"
#include "exec/backend_detail.hpp"

namespace obx::exec {

namespace detail {

/// Scatters this tile's inputs into the column-wise memory image: a
/// two-level tiled transpose.  Lane sub-blocks of 256 keep the tile's input
/// pages resident in the L2 TLB and its source lines in L1; 8-word (one
/// cacheline) address tiles turn the inner loop into one full source line
/// scattered onto 8 contiguous write streams.
static void scatter_tile(const Tile& t, std::span<const Word> inputs, std::size_t iw) {
  constexpr std::size_t kSub = 256;
  constexpr std::size_t kLine = 8;
  const Word* src_base = inputs.data();
  for (std::size_t jb = 0; jb < t.len; jb += kSub) {
    const std::size_t je = std::min(jb + kSub, t.len);
    std::size_t i0 = 0;
    for (; i0 + kLine <= iw; i0 += kLine) {
      Word* dst[kLine];
      for (std::size_t k = 0; k < kLine; ++k) dst[k] = mem_ref(t, static_cast<Addr>(i0 + k));
      for (std::size_t j = jb; j < je; ++j) {
        const Word* src = src_base + (t.base + j) * iw + i0;
        for (std::size_t k = 0; k < kLine; ++k) dst[k][j] = src[k];
      }
    }
    for (; i0 < iw; ++i0) {
      Word* dst = mem_ref(t, static_cast<Addr>(i0));
      for (std::size_t j = jb; j < je; ++j) dst[j] = src_base[(t.base + j) * iw + i0];
    }
  }
}

}  // namespace detail

namespace {

using detail::Tile;

using SegmentFn = void (*)(const Tile&, const CompiledProgram::Segment&);

/// Maps the requested SIMD tier to its segment body, degrading to the widest
/// engine this binary actually contains (an AVX2-less toolchain build asked
/// for kAvx2 still runs, on the baseline 128-bit engine).
SegmentFn segment_fn_for(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kScalar:
      return detail::exec_segment_w1;
    case SimdIsa::kSse2:
    case SimdIsa::kNeon:
      return detail::exec_segment_w2;
    case SimdIsa::kAvx2:
#if defined(OBX_SIMD_HAVE_AVX2)
      return detail::exec_segment_avx2;
#else
      return detail::exec_segment_w2;
#endif
    case SimdIsa::kAvx512:
#if defined(OBX_SIMD_HAVE_AVX512)
      return detail::exec_segment_avx512;
#elif defined(OBX_SIMD_HAVE_AVX2)
      return detail::exec_segment_avx2;
#else
      return detail::exec_segment_w2;
#endif
  }
  return detail::exec_segment_w1;
}

}  // namespace

std::string to_string(Backend backend) {
  switch (backend) {
    case Backend::kInterpreted: return "interpreted";
    case Backend::kCompiled: return "compiled";
  }
  return "?";
}

std::size_t resolve_tile_lanes(std::size_t requested, std::size_t reg_count,
                               std::size_t lanes, std::size_t vector_width) {
  const std::size_t w = std::max<std::size_t>(vector_width, 1);
  std::size_t tile = requested;
  if (tile == 0) {
    constexpr std::size_t kRegTileBytes = 16 * 1024;
    tile = kRegTileBytes / (sizeof(Word) * std::max<std::size_t>(reg_count, 1));
    // Power of two in [32, 1024]: already a multiple of every vector width.
    tile = std::clamp<std::size_t>(std::bit_floor(tile), 32, 1024);
  }
  tile = std::min(tile, lanes);
  if (tile >= w) tile -= tile % w;  // round down to a vector-width multiple
  // Degenerate inputs (no lanes, reg_count == 0) must still yield a runnable
  // scalar tile: run_compiled_chunk refuses tile_lanes == 0.
  return std::max<std::size_t>(tile, 1);
}

void run_compiled_chunk(const CompiledProgram& compiled, std::size_t lanes,
                        std::span<const Word> inputs, std::size_t input_words,
                        std::span<Word> memory, Lane lane_begin, Lane lane_end,
                        std::size_t tile_lanes, SimdIsa isa) {
  OBX_CHECK(tile_lanes > 0, "tile size must be positive");
  OBX_CHECK(memory.size() == lanes * compiled.memory_words(),
            "memory image sized for a different program or lane count");
  const std::size_t reg_count = std::max<std::size_t>(compiled.register_count(), 1);
  // Grow-only thread-local register scratch: with the CorePool submitting
  // one task per tile, this entry point runs once per tile on whichever
  // thread stole it — a heap allocation here would dominate small tiles.
  // Only the first reg_count * tile_lanes words are used (and re-zeroed per
  // tile below), so a large earlier program cannot leak state into this one.
  thread_local aligned_vector<Word> regs;
  const std::size_t regs_needed = reg_count * tile_lanes;
  if (regs.size() < regs_needed) regs.resize(regs_needed);
  const SegmentFn segment_fn = segment_fn_for(isa);

  Tile t;
  t.regs = regs.data();
  t.cap = tile_lanes;
  t.mem = memory.data();
  t.p = lanes;

  for (std::size_t base = lane_begin; base < lane_end; base += tile_lanes) {
    t.base = base;
    t.len = std::min(tile_lanes, lane_end - base);
    detail::scatter_tile(t, inputs, input_words);
    std::fill_n(regs.data(), regs_needed, Word{0});
    for (const CompiledProgram::Segment& seg : compiled.segments()) {
      segment_fn(t, seg);
    }
  }
}

}  // namespace obx::exec
