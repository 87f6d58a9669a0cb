#include "vlsi/mesh.hpp"

#include "linalg/fp.hpp"
#include "util/require.hpp"

namespace ccmx::vlsi {

namespace {

/// Charges a horizontal message travelling between columns [from, to] on any
/// row: `bits` per hop, plus one bisection crossing if it spans the mid cut.
struct Meter {
  std::size_t n = 0;
  std::size_t cycles = 0;
  std::size_t wire_bits = 0;
  std::size_t bisection_bits = 0;

  void horizontal(std::size_t from_col, std::size_t to_col, unsigned bits) {
    const std::size_t lo = std::min(from_col, to_col);
    const std::size_t hi = std::max(from_col, to_col);
    const std::size_t hops = hi - lo;
    wire_bits += hops * bits;
    const std::size_t cut = n / 2;  // between columns cut-1 and cut
    if (lo < cut && hi >= cut) bisection_bits += bits;
  }

  void vertical(std::size_t from_row, std::size_t to_row, unsigned bits) {
    const std::size_t hops =
        from_row > to_row ? from_row - to_row : to_row - from_row;
    wire_bits += hops * bits;
  }
};

}  // namespace

MeshResult simulate_mesh(const la::ModMatrix& entries,
                         const MeshConfig& config) {
  const num::Zp field(config.p);
  CCMX_REQUIRE(entries.is_square(), "mesh needs a square matrix");
  const std::size_t n = entries.rows();
  la::ModMatrix grid = entries;

  Meter meter;
  meter.n = n;
  MeshResult result;
  result.det_mod_p = 1;
  result.area_units = n * n * config.word_bits;

  if (config.stream_inputs) {
    // Entries enter from the west edge, one word-parallel wavefront per
    // column distance; entry (i, j) traverses j hops.
    std::size_t max_hops = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        meter.horizontal(0, j, config.input_bits);
        max_hops = std::max(max_hops, j);
      }
    }
    // Pipelined load: a column-j entry arrives after j cycles; rows stream
    // in parallel, successive entries back to back.
    meter.cycles += max_hops + n;
  }

  for (std::size_t step = 0; step < n; ++step) {
    // (1) Pivot search: candidates in column `step` forward their values up
    // toward row `step` (vertical traffic; one scan pass).
    std::size_t pivot = step;
    while (pivot < n && grid(pivot, step) == 0) ++pivot;
    for (std::size_t r = step + 1; r < n; ++r) {
      meter.vertical(r, step, config.word_bits);
    }
    meter.cycles += n - step;

    if (pivot == n) {
      result.singular = true;
      result.det_mod_p = 0;
      // The array still sweeps the remaining steps (worst-case timing).
      meter.cycles += 2 * (n - step);
      continue;
    }
    if (pivot != step) {
      // (2) Row swap: both rows traverse the vertical distance in every
      // column simultaneously.
      for (std::size_t j = 0; j < n; ++j) {
        meter.vertical(pivot, step, 2 * config.word_bits);
      }
      meter.cycles += pivot - step;
      grid.swap_rows(pivot, step);
      result.det_mod_p = field.neg(result.det_mod_p);
    }

    const std::uint64_t pivot_value = grid(step, step);
    result.det_mod_p = field.mul(pivot_value, result.det_mod_p);
    const std::uint64_t inv = field.inv(pivot_value);

    // (3) Pivot row broadcast: each column's pivot-row entry flows down to
    // the rows below (vertical traffic, pipelined: n - step cycles).
    for (std::size_t j = step; j < n; ++j) {
      meter.vertical(step, n - 1, config.word_bits);
    }
    meter.cycles += n - step;

    // (4) Multiplier broadcast: each row i > step computes its factor at
    // column `step` and broadcasts it east to columns step..n-1 (horizontal
    // traffic; this is what crosses the bisection).
    for (std::size_t i = step + 1; i < n; ++i) {
      meter.horizontal(step, n - 1, config.word_bits);
    }
    meter.cycles += n - step;

    // (5) Local update (one multiply-subtract cycle everywhere).
    for (std::size_t i = step + 1; i < n; ++i) {
      if (grid(i, step) == 0) continue;
      la::subtract_row_multiple(grid, i, step, field.mul(grid(i, step), inv),
                                step, field);
    }
    meter.cycles += 1;
  }

  result.cycles = meter.cycles;
  result.wire_bits = meter.wire_bits;
  result.bisection_bits = meter.bisection_bits;
  if (!result.singular) result.singular = result.det_mod_p == 0;
  return result;
}

MeshResult simulate_mesh(const la::IntMatrix& m, const MeshConfig& config) {
  return simulate_mesh(la::reduce_mod(m, config.p), config);
}

MeshResult simulate_mesh_pipelined(const la::ModMatrix& entries,
                                   const MeshConfig& config) {
  // Same dataflow and traffic; only the schedule differs.  Step s of the
  // sequential design occupies ~3(n - s) + 1 cycles; the pipelined array
  // overlaps steps with a fixed 3-cycle launch interval (the wavefront must
  // stay behind the previous step's pivot broadcast), finishing at
  //   start(last) + duration(last)  with start(s) = 3 s.
  MeshResult result = simulate_mesh(entries, config);
  const std::size_t n = entries.rows();
  std::size_t finish = 0;
  for (std::size_t step = 0; step < n; ++step) {
    const std::size_t start = 3 * step;
    const std::size_t duration = 3 * (n - step) + 1;
    finish = std::max(finish, start + duration);
  }
  std::size_t cycles = finish;
  if (config.stream_inputs) cycles += 2 * n;  // the load wavefront prefix
  result.cycles = cycles;
  return result;
}

MeshResult simulate_mesh_pipelined(const la::IntMatrix& m,
                                   const MeshConfig& config) {
  return simulate_mesh_pipelined(la::reduce_mod(m, config.p), config);
}

}  // namespace ccmx::vlsi
