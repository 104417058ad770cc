// Lane-tiled execution of a CompiledProgram over arranged global memory.
//
// Where the interpreted executor sweeps the whole worker chunk once per step
// (streaming the full register file through cache every time), the compiled
// backend walks lane tiles: for each tile of ~T lanes it scatters the tile's
// inputs (a cache-blocked transpose instead of the per-lane strided writes of
// Layout::scatter), zeroes a register tile small enough to stay L1-resident
// (reg_count × T words), and then runs *every* fused op of every segment over
// that tile before moving on.  Dispatch cost is amortised by superinstruction
// fusion; memory traffic per tile touches each arranged word once per
// load/store that names it.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "common/simd_isa.hpp"
#include "common/types.hpp"
#include "bulk/layout.hpp"
#include "exec/compiled_program.hpp"

namespace obx::exec {

/// Which lockstep engine HostBulkExecutor uses.  kAuto and kCompiled run the
/// compiled backend, degrading to the interpreter when the program exceeds
/// the compile budget (the fallback is recorded in the run result rather
/// than failing).  The numeric values are folded into plan fingerprints.
enum class Backend : std::uint8_t { kAuto, kInterpreted, kCompiled };

std::string to_string(Backend backend);

/// Picks a lane-tile size: `requested` if nonzero, else the largest power of
/// two in [32, 1024] keeping the register tile within ~16 KB (a third of a
/// typical 48 KB L1d, leaving room for the memory streams).  A nonzero
/// `requested` that is at least `vector_width` lanes is rounded down to a
/// multiple of it so only the final tile of a chunk has a scalar tail;
/// smaller requests are honoured as-is.  For blocked layouts the tile is
/// shrunk to a divisor of the block so a tile never crosses a block boundary
/// (tile addressing relies on a single stride), preferring a divisor that is
/// also a vector-width multiple when one exists.  Always returns >= 1, even
/// for degenerate inputs (p < vector_width, reg_count == 0, blocked layouts
/// whose block is not a vector-width multiple): the worst case is a valid
/// scalar tile, never 0.
std::size_t resolve_tile_lanes(std::size_t requested, std::size_t reg_count,
                               const bulk::Layout& layout,
                               std::size_t vector_width = 1);

/// Executes `compiled` over lanes [lane_begin, lane_end), tile by tile,
/// scattering each tile's inputs in place.  `memory` must be pre-zeroed;
/// inputs are lane-major flat (lane j at inputs[j * input_words ...]).
/// For blocked layouts `tile_lanes` must divide the block and lane_begin
/// must be a tile_lanes multiple (see resolve_tile_lanes) — tile addressing
/// splits lane_begin into a block index and an in-block offset, so any
/// tile-aligned range works, including ranges starting mid-block (how the
/// CorePool submits one task per tile).  Thread-safe across disjoint lane
/// ranges; keeps a grow-only thread_local register scratch.  `isa`
/// selects the lane-vectorized kernel set (lanes are packed
/// `simd_width_words(isa)` per vector, ragged tails handled scalar); tiers
/// this binary lacks degrade to the widest one it has.  Any tier is
/// bit-identical to kScalar.
void run_compiled_chunk(const CompiledProgram& compiled, const bulk::Layout& layout,
                        std::span<const Word> inputs, std::size_t input_words,
                        std::span<Word> memory, Lane lane_begin, Lane lane_end,
                        std::size_t tile_lanes, SimdIsa isa = active_simd_isa());

}  // namespace obx::exec
