// Microbenchmark of the local dense solvers across the Table I matrix
// sizes (8..216): the paper's §II-C cost discussion and the Table II
// crossover, isolated from the transport sweep. Also measures the
// pre-inverted apply (one matvec) that the pre-assembly mode (§IV-B-1)
// substitutes for the solve. After the microbenchmarks, the harness runs
// the iterative-scheme study: source iteration vs sweep-preconditioned
// GMRES sweeps-to-convergence and wall time across scattering ratios on
// an optically thick homogeneous deck.

#include <benchmark/benchmark.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "api/run.hpp"
#include "api/version.hpp"
#include "linalg/gauss_elim.hpp"
#include "linalg/invert.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace unsnap;

linalg::Matrix random_system(int n, std::uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix a(n, n);
  for (int i = 0; i < n; ++i) {
    double row = 0.0;
    for (int j = 0; j < n; ++j) {
      a(i, j) = rng.uniform(-1.0, 1.0);
      row += std::fabs(a(i, j));
    }
    a(i, i) += 2.0 * row;  // transport-like dominance
  }
  return a;
}

std::vector<double> random_rhs(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& x : b) x = rng.uniform(-1.0, 1.0);
  return b;
}

void BM_GaussSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const linalg::Matrix a0 = random_system(n, 1);
  const std::vector<double> b0 = random_rhs(n, 2);
  linalg::Matrix a = a0;
  std::vector<double> b = b0;
  for (auto _ : state) {
    // Copy-in is part of the workload: the sweep re-assembles A each time.
    std::copy(a0.data(), a0.data() + static_cast<std::size_t>(n) * n,
              a.data());
    std::copy(b0.begin(), b0.end(), b.begin());
    linalg::gauss_solve(a.view(), b);
    benchmark::DoNotOptimize(b.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["flops"] = linalg::flops_lu_solve(n);
}

void BM_GaussSolveNoPivot(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const linalg::Matrix a0 = random_system(n, 3);
  const std::vector<double> b0 = random_rhs(n, 4);
  linalg::Matrix a = a0;
  std::vector<double> b = b0;
  for (auto _ : state) {
    std::copy(a0.data(), a0.data() + static_cast<std::size_t>(n) * n,
              a.data());
    std::copy(b0.begin(), b0.end(), b.begin());
    linalg::gauss_solve_nopivot(a.view(), b);
    benchmark::DoNotOptimize(b.data());
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_LapackStyleLu(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const linalg::Matrix a0 = random_system(n, 5);
  const std::vector<double> b0 = random_rhs(n, 6);
  linalg::Matrix a = a0;
  std::vector<double> b = b0;
  std::vector<int> pivots(static_cast<std::size_t>(n));
  for (auto _ : state) {
    std::copy(a0.data(), a0.data() + static_cast<std::size_t>(n) * n,
              a.data());
    std::copy(b0.begin(), b0.end(), b.begin());
    linalg::lapack_style_solve(a.view(), b, pivots);
    benchmark::DoNotOptimize(b.data());
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_PreInvertedApply(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  linalg::Matrix a = random_system(n, 7);
  linalg::Matrix inv(n, n);
  std::vector<int> pivots(static_cast<std::size_t>(n));
  linalg::invert(a.view(), inv.view(), pivots);
  const std::vector<double> b = random_rhs(n, 8);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto _ : state) {
    linalg::matvec(inv.view(), b, x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["flops"] = linalg::flops_matvec(n);
}

// The Table I sizes: (p+1)^3 for p = 1..5.
constexpr std::int64_t kSizes[] = {8, 27, 64, 125, 216};

void table_sizes(benchmark::internal::Benchmark* b) {
  for (const auto n : kSizes) b->Arg(n);
}

BENCHMARK(BM_GaussSolve)->Apply(table_sizes);
BENCHMARK(BM_GaussSolveNoPivot)->Apply(table_sizes);
BENCHMARK(BM_LapackStyleLu)->Apply(table_sizes);
BENCHMARK(BM_PreInvertedApply)->Apply(table_sizes);

// ---- SI vs GMRES across scattering ratios --------------------------------

// A 20 mfp homogeneous scattering cube: source iteration's sweep count
// grows like 1/(1 - c) here, GMRES's stays O(10). The study runs through
// the deck-driven api::Run facade and dumps every RunRecord into
// BENCH_solvers.json, so the perf trajectory is machine-readable (the
// printed table is derived from the very same records).
void run_iteration_scheme_study() {
  api::RunConfig config;
  config.mesh = {.dims = {6, 6, 6},
                 .extent = {20.0, 20.0, 20.0},
                 .twist = 0.001,
                 .shuffle_seed = 1};
  config.angular.nang = 4;
  config.materials.num_groups = 1;
  config.materials.mat_opt = 0;
  config.source.src_opt = 0;
  config.output.report = false;

  unsnap::Table table({"c", "si sweeps", "si s", "gmres sweeps", "krylov",
                       "gmres s", "sweep ratio", "speedup"});
  util::JsonWriter json;
  json.begin_object();
  json.kv("bench", "bench_solvers: SI vs sweep-preconditioned GMRES, "
                   "20 mfp cube, epsi 1e-6");
  json.kv("unsnap", api::version_info().summary());
  json.key("runs").begin_array();

  for (const double c : {0.5, 0.9, 0.99, 0.999}) {
    api::RunRecord records[2];
    for (const snap::IterationScheme scheme :
         {snap::IterationScheme::SourceIteration,
          snap::IterationScheme::Gmres}) {
      config.materials.scattering_ratio = c;
      config.iteration = {.epsi = 1e-6,
                          .iitm = 3000,
                          .oitm = 4,
                          .fixed_iterations = false,
                          .scheme = scheme};
      char title[64];
      std::snprintf(title, sizeof(title), "c = %g, %s inners", c,
                    snap::to_string(scheme).c_str());
      config.title = title;
      api::Run run(config);
      records[scheme == snap::IterationScheme::Gmres ? 1 : 0] =
          run.execute();
    }
    for (const api::RunRecord& record : records)
      json.raw(api::to_json(record));

    const core::IterationResult& si = *records[0].iteration;
    const core::IterationResult& gm = *records[1].iteration;
    table.add_row(
        {c,
         std::string(std::to_string(si.sweeps) +
                     (si.converged ? "" : " (cap)")),
         si.total_seconds, static_cast<long>(gm.sweeps),
         static_cast<long>(gm.krylov_iters), gm.total_seconds,
         static_cast<double>(gm.sweeps) / si.sweeps,
         si.total_seconds / gm.total_seconds});
  }
  json.end_array();
  json.end_object();

  std::printf("\n");
  table.print("iteration schemes: SI vs sweep-preconditioned GMRES "
              "(20 mfp cube, epsi 1e-6)");

  const char* out_path = "BENCH_solvers.json";
  if (std::FILE* out = std::fopen(out_path, "w")) {
    std::fputs(json.str().c_str(), out);
    std::fputc('\n', out);
    std::fclose(out);
    std::printf("\nwrote %s (one RunRecord per study cell)\n", out_path);
  } else {
    std::printf("\ncould not write %s\n", out_path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // The study's printf table is for humans on the default invocation:
  // listing mode and machine-readable output requests (--benchmark_format
  // / --benchmark_out*) must not be corrupted by it or pay its seconds of
  // transport solves. Google Benchmark accepts several falsy spellings
  // for the list flag's value.
  bool skip_study = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--benchmark_format", 0) == 0 ||
        arg.rfind("--benchmark_out", 0) == 0) {
      skip_study = true;
      continue;
    }
    if (arg.rfind("--benchmark_list_tests", 0) != 0) continue;
    std::string value = arg.substr(std::string("--benchmark_list_tests").size());
    if (!value.empty() && value[0] == '=') value = value.substr(1);
    for (char& ch : value) ch = static_cast<char>(std::tolower(ch));
    if (value.empty() || value == "true" || value == "t" || value == "yes" ||
        value == "1")
      skip_study = true;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!skip_study) run_iteration_scheme_study();
  return 0;
}
