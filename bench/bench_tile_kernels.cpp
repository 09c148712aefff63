// Tile-kernel throughput: single-thread GFlop/s of every register-blocked
// tile kernel, for every instruction-set variant this host runs, next to the
// unblocked loops they replaced (tests/tile_kernels_oracle.hpp, compiled
// here with the kernels' own -ffp-contract=off), at nb ∈ {16, 64, 192, 960}.
//
// Each (kernel, variant, nb) point is kReps = 7 timed reps after one untimed
// call; a rep runs enough calls to last about 20 ms, each call restoring its
// output tile first (O(nb²), timed with the O(nb³) kernel). Rows report the
// median and the interquartile range of GFlop/s over the reps, with the
// flop counts the schedulers use (flops_potrf, ...).
//
//   bench_tile_kernels [--smoke]
//
// --smoke runs only nb ∈ {16, 64}. Writes BENCH_tile_kernels.json in the
// working directory; a record's "scheduler" field names the variant ("loop"
// for the old loops) and "makespan_s" is the median time per call. No gate:
// the rows are a trajectory, not a bound.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "apps/dense/tile_kernel_variants.hpp"
#include "apps/dense/tile_kernels.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "obs/bench_json.hpp"
#include "tile_kernels_oracle.hpp"

namespace {

using mp::dense::detail::TileKernelVariant;

constexpr std::size_t kReps = 7;
constexpr std::size_t kSizes[] = {16, 64, 192, 960};
constexpr double kRepSeconds = 0.02;

double seconds_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile of a sorted sample.
double quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

/// The input tiles of one size: random A, B, C, an SPD and a diagonally
/// dominant tile, and the Cholesky and LU factors the solves read.
struct Tiles {
  explicit Tiles(std::size_t n) : nb(n) {
    mp::Rng rng(n);
    auto random = [&] {
      std::vector<double> t(n * n);
      for (double& v : t) v = rng.next_real(-1.0, 1.0);
      return t;
    };
    a = random();
    b = random();
    c = random();
    spd = random();
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < j; ++i) spd[j * n + i] = spd[i * n + j];
      spd[j * n + j] += static_cast<double>(n);
    }
    dominant = random();
    for (std::size_t j = 0; j < n; ++j) dominant[j * n + j] += static_cast<double>(n);
    chol = spd;
    mp::dense::oracle::potrf(chol.data(), n);
    lu = dominant;
    mp::dense::oracle::getrf_nopiv(lu.data(), n);
  }
  std::size_t nb;
  std::vector<double> a, b, c, spd, dominant, chol, lu;
};

/// One kernel: its flop count, the tile it overwrites, and how to call it
/// through a variant (nullptr calls the unblocked loop).
struct Kernel {
  const char* name;
  double (*flops)(std::size_t);
  const std::vector<double> Tiles::*output;
  std::function<void(const TileKernelVariant*, const Tiles&, double*)> call;
};

std::vector<Kernel> kernels() {
  namespace d = mp::dense;
  namespace o = mp::dense::oracle;
  return {
      {"potrf", d::flops_potrf, &Tiles::spd,
       [](const TileKernelVariant* v, const Tiles& t, double* x) {
         v ? v->potrf(x, t.nb) : o::potrf(x, t.nb);
       }},
      {"trsm_rlt", d::flops_trsm, &Tiles::b,
       [](const TileKernelVariant* v, const Tiles& t, double* x) {
         v ? v->trsm_rlt(t.chol.data(), x, t.nb) : o::trsm_rlt(t.chol.data(), x, t.nb);
       }},
      {"syrk_ln", d::flops_syrk, &Tiles::c,
       [](const TileKernelVariant* v, const Tiles& t, double* x) {
         v ? v->syrk_ln(t.a.data(), x, t.nb) : o::syrk_ln(t.a.data(), x, t.nb);
       }},
      {"gemm_nt", d::flops_gemm, &Tiles::c,
       [](const TileKernelVariant* v, const Tiles& t, double* x) {
         v ? v->gemm_nt(t.a.data(), t.b.data(), x, t.nb)
           : o::gemm_nt(t.a.data(), t.b.data(), x, t.nb);
       }},
      {"getrf_nopiv", d::flops_getrf, &Tiles::dominant,
       [](const TileKernelVariant* v, const Tiles& t, double* x) {
         v ? v->getrf_nopiv(x, t.nb) : o::getrf_nopiv(x, t.nb);
       }},
      {"trsm_llnu", d::flops_trsm, &Tiles::b,
       [](const TileKernelVariant* v, const Tiles& t, double* x) {
         v ? v->trsm_llnu(t.lu.data(), x, t.nb) : o::trsm_llnu(t.lu.data(), x, t.nb);
       }},
      {"trsm_run", d::flops_trsm, &Tiles::b,
       [](const TileKernelVariant* v, const Tiles& t, double* x) {
         v ? v->trsm_run(t.lu.data(), x, t.nb) : o::trsm_run(t.lu.data(), x, t.nb);
       }},
      {"gemm_nn", d::flops_gemm, &Tiles::c,
       [](const TileKernelVariant* v, const Tiles& t, double* x) {
         v ? v->gemm_nn(t.a.data(), t.b.data(), x, t.nb)
           : o::gemm_nn(t.a.data(), t.b.data(), x, t.nb);
       }},
  };
}

/// GFlop/s of each timed rep, sorted.
std::vector<double> measure(const Kernel& k, const TileKernelVariant* v, const Tiles& t) {
  const std::vector<double>& input = t.*k.output;
  std::vector<double> work(input.size());
  auto call = [&] {
    std::memcpy(work.data(), input.data(), input.size() * sizeof(double));
    k.call(v, t, work.data());
  };
  const double t0 = seconds_now();
  call();
  const double one = std::max(1e-7, seconds_now() - t0);
  const std::size_t calls = std::max<std::size_t>(1, static_cast<std::size_t>(kRepSeconds / one));
  std::vector<double> gflops;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    const double r0 = seconds_now();
    for (std::size_t i = 0; i < calls; ++i) call();
    const double per_call = (seconds_now() - r0) / static_cast<double>(calls);
    gflops.push_back(k.flops(t.nb) / per_call * 1e-9);
  }
  std::sort(gflops.begin(), gflops.end());
  return gflops;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mp;
  const bool smoke = bench::has_flag(argc, argv, "--smoke");

  // The loops first, then every variant the host runs, narrowest first.
  std::vector<const TileKernelVariant*> variants = {nullptr};
  for (const TileKernelVariant& v : dense::detail::tile_kernel_variants())
    if (v.supported) variants.push_back(&v);

  std::vector<BenchRecord> records;
  std::printf("Single-thread tile-kernel GFlop/s, median and IQR of %zu reps (active: %s)\n",
              kReps, dense::detail::active_tile_kernels().name);
  std::printf("%-12s %-8s %5s %10s %8s\n", "kernel", "variant", "nb", "gflops", "iqr");
  for (const std::size_t nb : kSizes) {
    if (smoke && nb > 64) continue;
    const Tiles tiles(nb);
    for (const Kernel& k : kernels()) {
      for (const TileKernelVariant* v : variants) {
        const std::vector<double> g = measure(k, v, tiles);
        const double median = quantile(g, 0.5);
        const double q1 = quantile(g, 0.25);
        const double q3 = quantile(g, 0.75);
        const char* variant = v != nullptr ? v->name : "loop";
        std::printf("%-12s %-8s %5zu %10.2f %8.2f\n", k.name, variant, nb, median, q3 - q1);
        BenchRecord rec("tile_kernels", variant);
        rec.param("kernel", k.name)
            .param("nb", nb)
            .param("reps", kReps)
            .makespan_s(k.flops(nb) / median * 1e-9)
            .extra("gflops", median)
            .extra("gflops_q1", q1)
            .extra("gflops_q3", q3)
            .extra("gflops_iqr", q3 - q1);
        records.push_back(std::move(rec));
      }
    }
  }
  if (!write_bench_json("BENCH_tile_kernels.json", records))
    std::fprintf(stderr, "warning: could not write BENCH_tile_kernels.json\n");
  return 0;
}
