// Image pipeline: integral images for a tile stream, with bounded memory.
//
// A camera feed is processed as a stream of 32x32 tiles.  For each tile the
// oblivious summed-area algorithm produces the integral image, from which
// arbitrary box sums cost 4 lookups — the classic Viola-Jones front end.
// plan::run_streaming keeps only a small batch of tiles resident, so an
// arbitrarily long stream runs in constant memory.
#include <cmath>
#include <cstdio>
#include <vector>

#include "algos/summed_area.hpp"
#include "common/rng.hpp"
#include "plan/planner.hpp"
#include "trace/value.hpp"

namespace {

using namespace obx;

constexpr std::size_t kSide = 32;
constexpr std::size_t kTiles = 2048;
constexpr std::size_t kResident = 128;  // peak memory: 128 tiles at a time

/// Deterministic synthetic tile: smooth gradient + one bright square.
double pixel(std::size_t tile, std::size_t r, std::size_t c) {
  const double base = static_cast<double>((r + c + tile) % 17);
  const std::size_t box = tile % (kSide - 8);
  const bool bright = r >= box && r < box + 8 && c >= box && c < box + 8;
  return base + (bright ? 100.0 : 0.0);
}

/// Box sum from an integral image over [r0, r1) x [c0, c1).
double box_sum(std::span<const Word> integral, std::size_t r0, std::size_t c0,
               std::size_t r1, std::size_t c1) {
  auto at = [&](std::size_t r, std::size_t c) -> double {
    if (r == 0 || c == 0) return 0.0;
    return trace::as_f64(integral[(r - 1) * kSide + (c - 1)]);
  };
  return at(r1, c1) - at(r0, c1) - at(r1, c0) + at(r0, c0);
}

}  // namespace

int main() {
  using namespace obx;
  // Plan once at the resident occupancy, then stream all tiles through it,
  // keeping kResident resident.
  plan::PlanOptions options;
  options.reference_lanes = kResident;
  const auto plan = plan::build_plan(algos::summed_area_program(kSide), options);
  std::vector<std::vector<Word>> integrals(kTiles);
  const plan::StreamStats stats = plan::run_streaming(
      *plan, kTiles, kResident,
      [&](Lane tile, std::span<Word> dst) {
        for (std::size_t r = 0; r < kSide; ++r) {
          for (std::size_t c = 0; c < kSide; ++c) {
            dst[r * kSide + c] = trace::from_f64(pixel(tile, r, c));
          }
        }
      },
      [&](Lane tile, std::span<const Word> out) {
        integrals[tile].assign(out.begin(), out.end());
      });
  std::printf("streamed %zu tiles in %zu batches (%zu resident), %.1f ms "
              "(%.1f ms execute + %.1f ms callbacks)\n",
              stats.lanes, stats.batches, kResident,
              (stats.execute_seconds + stats.callback_seconds) * 1e3,
              stats.execute_seconds * 1e3, stats.callback_seconds * 1e3);

  // Verify random box queries against direct summation, and find the bright
  // square of a few tiles with an 8x8 sliding box.
  Rng rng(3);
  std::size_t queries = 0;
  for (int q = 0; q < 500; ++q) {
    const std::size_t tile = rng.next_below(kTiles);
    std::size_t r0 = rng.next_below(kSide), r1 = rng.next_below(kSide);
    std::size_t c0 = rng.next_below(kSide), c1 = rng.next_below(kSide);
    if (r0 > r1) std::swap(r0, r1);
    if (c0 > c1) std::swap(c0, c1);
    ++r1, ++c1;
    double direct = 0.0;
    for (std::size_t r = r0; r < r1; ++r) {
      for (std::size_t c = c0; c < c1; ++c) direct += pixel(tile, r, c);
    }
    const double fast = box_sum(integrals[tile], r0, c0, r1, c1);
    if (std::abs(fast - direct) > 1e-6 * std::max(1.0, std::abs(direct))) {
      std::printf("box query mismatch on tile %zu: %f vs %f\n", tile, fast, direct);
      return 1;
    }
    ++queries;
  }
  std::printf("%zu random box queries verified against direct summation\n", queries);

  std::size_t detections = 0;
  for (std::size_t tile = 0; tile < kTiles; tile += 307) {
    double best = -1.0;
    std::size_t best_pos = 0;
    for (std::size_t pos = 0; pos + 8 <= kSide; ++pos) {
      const double s = box_sum(integrals[tile], pos, pos, pos + 8, pos + 8);
      if (s > best) {
        best = s;
        best_pos = pos;
      }
    }
    if (best_pos == tile % (kSide - 8)) ++detections;
  }
  std::printf("bright-square detector located %zu/%zu probes correctly\n", detections,
              (kTiles + 306) / 307);
  std::printf("ok\n");
  return detections == (kTiles + 306) / 307 ? 0 : 1;
}
