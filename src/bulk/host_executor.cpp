#include "bulk/host_executor.hpp"

#include <algorithm>
#include <chrono>

#include "common/check.hpp"
#include "bulk/core_pool.hpp"
#include "exec/compiled_program.hpp"
#include "trace/step.hpp"

namespace obx::bulk {

HostBulkExecutor::HostBulkExecutor(Layout layout)
    : HostBulkExecutor(layout, Options()) {}

HostBulkExecutor::HostBulkExecutor(Layout layout, Options options)
    : layout_(layout), options_(options) {}

void HostBulkExecutor::run_chunk(const trace::Program& program, std::span<Word> memory,
                                 Lane lane_begin, Lane lane_end,
                                 trace::StepCounts* counts) const {
  const std::size_t chunk = lane_end - lane_begin;
  const std::size_t reg_count = std::max<std::size_t>(program.register_count, 1);
  // Lane-major register file: register r of lane (lane_begin + i) lives at
  // regs[r * chunk + i].  64-byte aligned: bulk_alu's vector sweeps stream
  // whole cachelines through these columns.
  aligned_vector<Word> regs(reg_count * chunk, Word{0});
  auto reg = [&](std::uint8_t r) { return regs.data() + std::size_t{r} * chunk; };

  const std::size_t p = layout_.lanes();
  const std::size_t n = layout_.words_per_input();
  const std::size_t block = layout_.block();
  Word* mem = memory.data();

  trace::StepCounts local;
  auto gen = program.stream();
  for (const trace::Step& s : gen) {
    switch (s.kind) {
      case trace::StepKind::kLoad: {
        OBX_CHECK(s.addr < n, "load beyond program memory");
        Word* dst = reg(s.dst);
        switch (layout_.arrangement()) {
          case Arrangement::kColumnWise: {
            const Word* src = mem + s.addr * p + lane_begin;
            for (std::size_t i = 0; i < chunk; ++i) dst[i] = src[i];
            break;
          }
          case Arrangement::kRowWise: {
            for (std::size_t i = 0; i < chunk; ++i) {
              dst[i] = mem[(lane_begin + i) * n + s.addr];
            }
            break;
          }
          case Arrangement::kBlocked: {
            for (std::size_t i = 0; i < chunk; ++i) {
              const Lane j = lane_begin + i;
              dst[i] = mem[(j / block) * (n * block) + s.addr * block + (j % block)];
            }
            break;
          }
          case Arrangement::kConflictFree: {
            const Word* src = mem + (s.addr * p + lane_begin) * block;
            for (std::size_t i = 0; i < chunk; ++i) dst[i] = src[i * block];
            break;
          }
        }
        ++local.loads;
        break;
      }
      case trace::StepKind::kStore: {
        OBX_CHECK(s.addr < n, "store beyond program memory");
        const Word* src = reg(s.src0);
        switch (layout_.arrangement()) {
          case Arrangement::kColumnWise: {
            Word* dst = mem + s.addr * p + lane_begin;
            for (std::size_t i = 0; i < chunk; ++i) dst[i] = src[i];
            break;
          }
          case Arrangement::kRowWise: {
            for (std::size_t i = 0; i < chunk; ++i) {
              mem[(lane_begin + i) * n + s.addr] = src[i];
            }
            break;
          }
          case Arrangement::kBlocked: {
            for (std::size_t i = 0; i < chunk; ++i) {
              const Lane j = lane_begin + i;
              mem[(j / block) * (n * block) + s.addr * block + (j % block)] = src[i];
            }
            break;
          }
          case Arrangement::kConflictFree: {
            Word* dst = mem + (s.addr * p + lane_begin) * block;
            for (std::size_t i = 0; i < chunk; ++i) dst[i * block] = src[i];
            break;
          }
        }
        ++local.stores;
        break;
      }
      case trace::StepKind::kAlu:
        trace::bulk_alu(s.op, reg(s.dst), reg(s.src0), reg(s.src1), reg(s.src2), chunk);
        ++local.alu;
        break;
      case trace::StepKind::kImm: {
        Word* dst = reg(s.dst);
        for (std::size_t i = 0; i < chunk; ++i) dst[i] = s.imm;
        ++local.imm;
        break;
      }
    }
  }
  if (counts != nullptr) *counts = local;
}

HostRunResult HostBulkExecutor::run(const trace::Program& program,
                                    std::span<const Word> inputs) const {
  OBX_CHECK(program.stream != nullptr, "program has no stream factory");
  OBX_CHECK(program.memory_words == layout_.words_per_input(),
            "layout sized for a different program");
  OBX_CHECK(inputs.size() == layout_.lanes() * program.input_words,
            "inputs must be lane-major flat: p * input_words words");
  OBX_CHECK(program.register_count <= 256, "register file limited to 256");

  HostRunResult result;
  result.memory.assign(layout_.total_words(), Word{0});
  const std::size_t p = layout_.lanes();
  const unsigned workers =
      options_.workers == 0 ? default_worker_count() : options_.workers;
  CorePool& pool = CorePool::instance();

  // Chunks must not split a blocked layout's block (alignment below); the
  // first chunk also reports the per-input step counts.
  const std::size_t align =
      layout_.arrangement() == Arrangement::kBlocked ? layout_.block() : 1;

  std::shared_ptr<const exec::CompiledProgram> compiled;
  if (options_.backend != exec::Backend::kInterpreted) {
    compiled = exec::CompiledProgram::get_or_compile(
        program, {.max_steps = options_.compile_budget_steps});
  }

  if (compiled != nullptr) {
    const SimdIsa isa = options_.simd.value_or(active_simd_isa());
    result.backend = exec::Backend::kCompiled;
    result.counts = compiled->counts();
    result.simd = isa;
    const std::size_t tile =
        exec::resolve_tile_lanes(options_.tile_lanes, compiled->register_count(),
                                 layout_, simd_width_words(isa));
    // One pool task per lane tile (not per worker): the steal loop soaks up
    // skewed tile costs, and grain == tile keeps the task boundaries exactly
    // the L1-sized, W-multiple tiles the kernels already use.  For blocked
    // layouts the tile divides the block (resolve_tile_lanes), so
    // tile-aligned task boundaries never split a block.
    const auto t0 = std::chrono::steady_clock::now();
    result.sched += pool.parallel_for(
        p, align == 1 ? 1 : tile, tile, workers,
        [&](std::size_t begin, std::size_t end) {
          exec::run_compiled_chunk(*compiled, layout_, inputs, program.input_words,
                                   result.memory, begin, end, tile, isa);
        });
    const auto t1 = std::chrono::steady_clock::now();
    result.seconds = std::chrono::duration<double>(t1 - t0).count();
    return result;
  }
  result.simd = active_simd_isa();  // what trace::bulk_alu will dispatch to

  result.sched += pool.parallel_for(
      p, 1, chunk_grain(p, 1, workers), workers, [&](std::size_t begin, std::size_t end) {
        for (Lane j = begin; j < end; ++j) {
          layout_.scatter(inputs.subspan(j * program.input_words, program.input_words),
                          j, result.memory);
        }
      });

  // Coarse chunks (~4 per worker), not per-tile: every interpreted chunk
  // re-drains the program stream, so the grain must amortise that cost.
  // The chunk containing lane 0 reports the per-input step counts.
  const auto t0 = std::chrono::steady_clock::now();
  result.sched += pool.parallel_for(
      p, align, chunk_grain(p, align, workers), workers,
      [&](std::size_t begin, std::size_t end) {
        run_chunk(program, result.memory, begin, end,
                  begin == 0 ? &result.counts : nullptr);
      });
  const auto t1 = std::chrono::steady_clock::now();
  result.seconds = std::chrono::duration<double>(t1 - t0).count();
  return result;
}

std::vector<Word> HostBulkExecutor::gather_outputs(const trace::Program& program,
                                                   std::span<const Word> memory) const {
  std::vector<Word> out;
  gather_outputs(program, memory, out);
  return out;
}

void HostBulkExecutor::gather_outputs(const trace::Program& program,
                                      std::span<const Word> memory,
                                      std::vector<Word>& out) const {
  const std::size_t p = layout_.lanes();
  const std::size_t ow = program.output_words;
  out.resize(p * ow);
  if (ow == 0) return;
  // A gather moving fewer words than the fan-out crossover (a serving
  // batch's outputs, typically) is cheaper as one copy on this thread.
  const unsigned workers = std::uint64_t{p} * ow < kFanOutMinWork ? 1u : options_.workers;
  const auto gather = [&](std::size_t begin, std::size_t end) {
    if (layout_.arrangement() == Arrangement::kColumnWise) {
      // Two-level tiled transpose (mirror of the compiled backend's tile
      // scatter): lane sub-blocks keep the destination pages TLB-resident,
      // 8-word address tiles make each lane's write one full cacheline fed
      // from 8 contiguous read streams.
      constexpr std::size_t kSub = 256;
      constexpr std::size_t kLine = 8;
      for (std::size_t jb = begin; jb < end; jb += kSub) {
        const std::size_t je = std::min(jb + kSub, end);
        std::size_t i0 = 0;
        for (; i0 + kLine <= ow; i0 += kLine) {
          const Word* src[kLine];
          for (std::size_t k = 0; k < kLine; ++k) {
            src[k] = memory.data() + (program.output_offset + i0 + k) * p;
          }
          for (std::size_t j = jb; j < je; ++j) {
            Word* dst = out.data() + j * ow + i0;
            for (std::size_t k = 0; k < kLine; ++k) dst[k] = src[k][j];
          }
        }
        for (; i0 < ow; ++i0) {
          const Word* src = memory.data() + (program.output_offset + i0) * p;
          for (std::size_t j = jb; j < je; ++j) out[j * ow + i0] = src[j];
        }
      }
    } else {
      for (Lane j = begin; j < end; ++j) {
        layout_.gather(memory, j, program.output_offset,
                       std::span<Word>(out).subspan(j * ow, ow));
      }
    }
  };
  CorePool::instance().parallel_for(p, 1, chunk_grain(p, 1, workers), workers, gather);
}

}  // namespace obx::bulk
