// An oblivious program: a named, replayable stream of Steps over a canonical
// per-input memory array.
//
// Programs are *stream factories*: each call to stream() yields a fresh
// Generator producing the same step sequence (the sequence is fixed — that
// is the definition of obliviousness).  Large programs (OPT on a 512-gon is
// ~10^8 steps) are never materialised; small programs can be captured into a
// TracedProgram for inspection and golden tests.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/generator.hpp"
#include "common/types.hpp"
#include "trace/step.hpp"

namespace obx::trace {

/// Static step-count profile of a program, as counted by profile().
struct StepCounts {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t alu = 0;
  std::uint64_t imm = 0;

  std::uint64_t memory() const { return loads + stores; }
  std::uint64_t total() const { return loads + stores + alu + imm; }
};

/// Process-wide memo slot for compiled artifacts derived from a Program.
/// Copies of a Program share the slot (shared_ptr), so a backend that keys
/// its cache on the slot compiles — and drains the step stream — at most
/// once per (program, process) no matter how many executors, chunks, or
/// copies touch it.  The artifact is type-erased here to keep trace/ free of
/// any dependency on the execution layer; exec/ owns the concrete type.
struct ExecCacheSlot {
  std::mutex mutex;
  std::shared_ptr<const void> artifact;
  /// Largest compile budget (in steps) a failed compile was attempted with;
  /// lets callers skip re-draining streams known to exceed their budget.
  std::size_t attempted_budget = 0;
};

struct Program {
  std::string name;

  /// Size of the canonical per-input memory array (input + scratch + output).
  std::size_t memory_words = 0;
  /// The first input_words of memory are caller-provided input.
  std::size_t input_words = 0;
  /// The result lives at [output_offset, output_offset + output_words).
  std::size_t output_offset = 0;
  std::size_t output_words = 0;
  /// Registers used (register file size for executors).
  std::size_t register_count = 16;

  /// Produces a fresh step stream from the beginning of the program.
  std::function<Generator<Step>()> stream;

  /// Shared compile memo (see ExecCacheSlot).  Defaulted so every Program has
  /// one; copies alias it.  Reassigning `stream` after a compile would make
  /// the memo stale — streams are set once at construction everywhere.
  std::shared_ptr<ExecCacheSlot> exec_cache = std::make_shared<ExecCacheSlot>();

  /// Runs the stream to completion counting step kinds.  O(program length).
  StepCounts profile() const;

  /// Memory-step count t of the sequential algorithm (loads + stores), the
  /// `t` of Theorems 2/3.  O(program length).
  std::uint64_t memory_steps() const { return profile().memory(); }
};

/// A fully materialised program (for small instances, inspection, checker).
class TracedProgram {
 public:
  /// Drains `source.stream()` into a step vector; the result's stream()
  /// replays the vector.  Refuses to record more than max_steps.
  static TracedProgram capture(const Program& source, std::size_t max_steps = 1u << 24);

  const Program& program() const { return program_; }
  const std::vector<Step>& steps() const { return *steps_; }

 private:
  TracedProgram() = default;
  Program program_;
  std::shared_ptr<std::vector<Step>> steps_;
};

/// Convenience: builds a Program whose stream replays `steps`.
Program make_replay_program(std::string name, std::size_t memory_words,
                            std::size_t input_words, std::size_t output_offset,
                            std::size_t output_words, std::size_t register_count,
                            std::vector<Step> steps);

/// Sequential composition: runs `first` then `second` over one canonical
/// memory (both must declare the same memory_words).  The register file
/// carries across the boundary, so `second` must write a register before
/// reading it — which every well-formed program does anyway.  The result
/// takes `first`'s input region and `second`'s output region.  Composing a
/// cipher with its inverse, or a sort with a scan, stays oblivious.
Program concat_programs(const Program& first, const Program& second,
                        std::string name = "");

}  // namespace obx::trace
