// Criticality scenario: the k-eigenvalue companion of the fixed-source
// examples. A two-group fuel cube sits in a water bath; the multigroup
// library is built programmatically through xs::Library, written to a
// temporary file and run through the same `[xs] file = ...` route decks
// use (mode = keff: xs::KeffSolver's power iteration around
// downscatter-ordered groupset transport solves). The scenario runs the
// problem twice — once split into one groupset per group (the library is
// pure downscatter), once fused into a single two-group block — and
// checks the two paths agree on k, demonstrating that the groupset
// partition is a performance knob, not a physics one.
//
// The fuel is tuned so its infinite-medium eigenvalue is exactly 1
// (see decks/xs/criticality.xs for the closed form); the finite, leaky
// configuration lands well below that.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "api/run.hpp"
#include "api/scenario.hpp"
#include "util/assert.hpp"
#include "xs/library.hpp"

namespace {

using namespace unsnap;

/// The two-group fuel/water pair of decks/xs/criticality.xs, built
/// in memory: group 0 fast, group 1 thermal, pure downscatter.
xs::Library criticality_library() {
  xs::Library lib;
  lib.ng = 2;
  lib.velocity = {2.0, 1.0};

  xs::Material fuel;
  fuel.name = "fuel";
  fuel.sigt = {2.0, 3.2};
  fuel.nu_sigf = {0.48, 0.96};
  fuel.chi = {1.0, 0.0};
  fuel.sigs.resize({1, 2, 2}, 0.0);
  fuel.sigs(0, 0, 0) = 1.2;
  fuel.sigs(0, 0, 1) = 0.4;
  fuel.sigs(0, 1, 1) = 2.0;
  lib.materials.push_back(fuel);

  xs::Material water;
  water.name = "water";
  water.sigt = {2.4, 4.8};
  water.sigs.resize({1, 2, 2}, 0.0);
  water.sigs(0, 0, 0) = 1.8;
  water.sigs(0, 0, 1) = 0.56;
  water.sigs(0, 1, 1) = 4.2;
  lib.materials.push_back(water);

  lib.validate();
  return lib;
}

/// A library written to a fresh temporary file, removed again on scope
/// exit.
class LibraryFile {
 public:
  explicit LibraryFile(const xs::Library& lib)
      : path_((std::filesystem::temp_directory_path() /
               "unsnap_criticality_XXXXXX")
                  .string()) {
    const int fd = ::mkstemp(path_.data());
    require(fd >= 0, "criticality: cannot create a temporary library file");
    ::close(fd);
    std::ofstream out(path_);
    out << xs::write_library(lib);
    require(out.good(), "criticality: cannot write '" + path_ + "'");
  }
  ~LibraryFile() { std::remove(path_.c_str()); }
  LibraryFile(const LibraryFile&) = delete;
  LibraryFile& operator=(const LibraryFile&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void declare_options(Cli& cli) {
  cli.option("nx", "6", "elements per axis");
  cli.option("nang", "2", "angles per octant");
  cli.option("k-tol", "1e-7", "|dk| convergence criterion");
  cli.option("fission-tol", "1e-6", "fission-source change criterion");
  cli.option("outers", "100", "power-iteration outer cap");
  cli.option("epsi", "1e-6", "groupset inner tolerances floor at 0.1 epsi");
  cli.flag("extrapolate", "enable shifted fission-source extrapolation");
}

int run(const Cli& cli) {
  const LibraryFile library(criticality_library());

  api::RunConfig config;
  config.mode = api::RunMode::Keff;
  config.mesh = {.dims = {cli.get_int("nx"), cli.get_int("nx"),
                          cli.get_int("nx")},
                 .extent = {4.0, 4.0, 4.0}};
  config.angular = {.nang = cli.get_int("nang")};
  // Library materials in order: fuel (0) in the centre cube, water (1)
  // around it.
  api::Box fuel;
  fuel.lo = {0.5, 0.5, 0.5};
  fuel.hi = {3.5, 3.5, 3.5};
  config.materials = {.num_groups = 2,
                      .default_material = 1,
                      .regions = {{.material = 0, .box = fuel}}};
  config.iteration = {.epsi = cli.get_double("epsi"),
                      .iitm = 20,
                      .oitm = 3,
                      .fixed_iterations = false};
  config.xs = {.file = library.path(),
               .k_tol = cli.get_double("k-tol"),
               .fission_tol = cli.get_double("fission-tol"),
               .max_outers = cli.get_int("outers"),
               .extrapolate = cli.get_flag("extrapolate")};

  double k_split = 0.0;
  std::printf("criticality: %d^3 mesh, %d angles/octant, 2 groups\n\n",
              cli.get_int("nx"), cli.get_int("nang"));
  std::shared_ptr<const core::Discretization> disc;
  for (const bool fused : {false, true}) {
    // Empty = one groupset per group (the library is pure downscatter).
    config.xs.groupsets = fused ? "0:1" : "";
    api::Run run(config);
    if (disc) run.set_shared_discretization(disc);
    const api::RunRecord record = run.execute();
    disc = run.shared_discretization();
    const api::RunRecord::KeffStats& result = *record.keff;
    std::printf("%s groupsets (%zu):\n", fused ? "fused" : "per-group",
                result.groupsets.size());
    std::printf("  k = %.9f (%s after %d outers, dominance ratio %.3f)\n",
                result.k, result.converged ? "converged" : "NOT converged",
                result.outers, result.dominance_ratio);
    for (std::size_t s = 0; s < result.groupset_sweeps.size(); ++s)
      std::printf("  groupset %zu: %lld sweeps\n", s,
                  result.groupset_sweeps[s]);
    const core::BalanceReport& balance = *record.balance;
    std::printf("  balance: fission/k %.6e = absorption %.6e + "
                "leakage %.6e (residual %.2e)\n\n",
                balance.fission, balance.absorption, balance.leakage,
                balance.residual());
    if (!fused) k_split = result.k;
    else {
      std::printf("split vs fused |dk| = %.3e\n",
                  std::abs(result.k - k_split));
      require(std::abs(result.k - k_split) < 1e-6,
              "criticality: groupset partition changed the eigenvalue");
    }
  }
  return 0;
}

const api::ScenarioRegistrar registrar{{
    .name = "criticality",
    .summary = "two-group k-eigenvalue solve through the xs library route",
    .declare_options = declare_options,
    .run = run,
}};

}  // namespace
