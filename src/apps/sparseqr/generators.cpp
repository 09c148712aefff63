#include "apps/sparseqr/generators.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace mp::sqr {

std::vector<MatrixSpec> paper_matrix_specs() {
  // rows/cols/nnz are the published values (Fig. 7). band_spread and
  // global_fraction are calibrated so our multifrontal analysis lands in
  // the same op-count regime (see bench_fig7_matrices for achieved values).
  // Achieved op counts (bench_fig7_matrices: our analysis, tall
  // orientation, generator seed 7), in the order below:
  //   235, 1030, 1633, 3562, 5559, 16851, 33150, 14483, 251797, 350843 Gflop
  // — within 20% of the published counts except GL7d24, whose extreme
  // aspect ratio caps the reachable count near 0.54×
  // (documented in EXPERIMENTS.md; its rank neighbours already overlap in
  // the paper too).
  return {
      {"cat_ears_4_4", 19020, 44448, 132888, 236.0, 500.0, 0.0125, 1.0},
      {"flower_7_4", 27693, 67593, 202218, 889.0, 820.0, 0.022, 1.0},
      {"e18", 24617, 38602, 156466, 1439.0, 1100.0, 0.028, 1.0},
      {"flower_8_4", 55081, 125361, 375266, 3072.0, 840.0, 0.019, 1.0},
      {"Rucci1", 1977885, 109900, 7791168, 5527.0, 100.0, 0.00013, 1.0},
      {"TF17", 38132, 48630, 586218, 15787.0, 1050.0, 0.026, 1.0},
      {"neos2", 132568, 134128, 685087, 31018.0, 2700.0, 0.017, 1.0},
      {"GL7d24", 21074, 105054, 593892, 26825.0, 4000.0, 0.15, 1.0},
      {"TF18", 95368, 123867, 1597545, 229042.0, 1450.0, 0.025, 1.0},
      {"mk13-b5", 135135, 270270, 810810, 352413.0, 9000.0, 0.06, 1.0},
  };
}

SparseMatrix generate(const MatrixSpec& spec, std::uint64_t seed) {
  MP_CHECK(spec.rows > 0 && spec.cols > 0 && spec.nnz >= spec.cols);
  Rng rng(seed ^ std::hash<std::string>{}(spec.name));

  // Per-column degrees: average nnz/cols, remainder spread over the first
  // columns, with one guaranteed "diagonal-ish" anchor entry per column.
  const std::size_t base_deg = spec.nnz / spec.cols;
  const std::size_t remainder = spec.nnz - base_deg * spec.cols;

  std::vector<std::pair<std::uint32_t, std::uint32_t>> coo;
  coo.reserve(spec.nnz + spec.cols / 4);

  const double row_per_col = spec.cols > 1
                                 ? static_cast<double>(spec.rows - 1) /
                                       static_cast<double>(spec.cols - 1)
                                 : 0.0;
  // Per column, draw until `deg` *distinct* rows come out of the same
  // band/global mixture — collisions must not change the distribution
  // (uniform top-ups would silently destroy banded structure and its fill
  // properties). If a narrow band cannot host the degree, it widens
  // progressively.
  std::vector<std::uint32_t> chosen;
  for (std::size_t j = 0; j < spec.cols; ++j) {
    const std::size_t deg = base_deg + (j < remainder ? 1 : 0);
    const double anchor = static_cast<double>(j) * row_per_col;
    chosen.clear();
    double spread = std::max(1.0, spec.band_spread);
    std::size_t attempts = 0;
    auto unique_add = [&](std::int64_t r) {
      r = std::clamp<std::int64_t>(r, 0, static_cast<std::int64_t>(spec.rows) - 1);
      const auto ur = static_cast<std::uint32_t>(r);
      if (std::find(chosen.begin(), chosen.end(), ur) != chosen.end()) return false;
      chosen.push_back(ur);
      return true;
    };
    (void)unique_add(static_cast<std::int64_t>(anchor));
    while (chosen.size() < deg) {
      std::int64_t r = 0;
      if (rng.next_double() < spec.global_fraction) {
        const double u = std::pow(rng.next_double(), spec.global_bias);
        r = static_cast<std::int64_t>(u * static_cast<double>(spec.rows - 1));
      } else {
        r = static_cast<std::int64_t>(anchor + rng.next_normal() * spread);
      }
      (void)unique_add(r);
      if (++attempts > 16 * deg) {  // band saturated: widen it
        spread *= 2.0;
        attempts = 0;
      }
    }
    for (std::uint32_t r : chosen)
      coo.emplace_back(r, static_cast<std::uint32_t>(j));
  }

  SparseMatrix m = from_coo(spec.rows, spec.cols, std::move(coo));
  m.self_check();
  MP_CHECK(m.nnz() == spec.nnz);
  return m;
}

}  // namespace mp::sqr
