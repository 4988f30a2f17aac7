// k-eigenvalue cost study: the golden criticality configuration run
// across the two groupset partitions (per-group block Gauss-Seidel vs
// one fused set) crossed with the two preassembly modes (on-the-fly,
// explicit inverse). Reports outers, cumulative sweeps,
// preassembly storage and wall time per cell, and lands the full
// RunRecords in BENCH_keff.json in the shape of the other BENCH
// artifacts ({"bench", "unsnap", "runs": [...]}), plus a compact "keff"
// table of the crossed axes.
//
//   bench_keff [--dims N] [--outers N] [--out path]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "api/run.hpp"
#include "api/run_config.hpp"
#include "api/version.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "xs/library.hpp"

namespace {

using namespace unsnap;

int arg_int(int argc, char** argv, const char* flag, int fallback) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return std::atoi(argv[i + 1]);
  return fallback;
}

const char* arg_str(int argc, char** argv, const char* flag,
                    const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  return fallback;
}

/// The shipped criticality library (decks/xs/criticality.xs), generated
/// in-process so the bench is self-contained wherever it runs from. The
/// fuel's k_inf is exactly 1; water is a pure downscatterer.
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

/// The golden criticality deck's problem on a dims^3 mesh: reflected
/// water around a fuel cube, fixed outer budget so every axis point does
/// identical work and the wall times compare like for like.
api::RunConfig base_config(const std::string& library_path, int dims,
                           int outers) {
  api::RunConfig config;
  config.mode = api::RunMode::Keff;
  config.mesh.dims = {dims, dims, dims};
  config.mesh.extent = {static_cast<double>(dims), static_cast<double>(dims),
                        static_cast<double>(dims)};
  config.angular.nang = 2;
  config.materials.num_groups = 2;
  config.materials.material_names = {"fuel", "water"};
  config.materials.default_material = 1;
  const double lo = 0.5, hi = dims - 0.5;
  config.materials.regions.push_back(
      {.material = 0, .box = {.lo = {lo, lo, lo}, .hi = {hi, hi, hi}}});
  config.xs.file = library_path;
  config.xs.k_tol = 1e-12;  // out of reach: max_outers pins the budget
  config.xs.fission_tol = 1e-12;
  config.xs.max_outers = outers;
  config.iteration.epsi = 1e-6;
  config.iteration.iitm = 20;
  config.iteration.oitm = 3;
  config.output.report = false;
  return config;
}

struct Axis {
  const char* groupsets;    // deck [xs] groupsets value
  const char* preassembly;  // deck [execution] preassembly value
};

}  // namespace

int main(int argc, char** argv) {
  const int dims = arg_int(argc, argv, "--dims", 8);
  const int outers = arg_int(argc, argv, "--outers", 8);
  const char* out_path = arg_str(argc, argv, "--out", "BENCH_keff.json");

  // The bench runs from anywhere (no repo-relative deck paths): the
  // shipped library is regenerated next to the output artifact.
  const std::string library_path = std::string(out_path) + ".xs";
  if (std::FILE* lib_out = std::fopen(library_path.c_str(), "w")) {
    std::fputs(xs::write_library(criticality_library()).c_str(), lib_out);
    std::fclose(lib_out);
  } else {
    std::fprintf(stderr, "bench_keff: cannot write %s\n",
                 library_path.c_str());
    return 1;
  }

  const std::vector<Axis> axes = {
      {"0,1", "none"},
      {"0,1", "explicit-inverse"},
      {"0:1", "none"},
      {"0:1", "explicit-inverse"},
  };

  std::vector<std::string> records;
  Table table({"groupsets", "preassembly", "k", "outers", "sweeps",
               "storage (MB)", "wall (s)"});
  util::JsonWriter summary;
  summary.begin_array();

  for (const Axis& axis : axes) {
    api::RunConfig config = base_config(library_path, dims, outers);
    config.title = std::string("keff ") + axis.groupsets + " " +
                   axis.preassembly;
    config.xs.groupsets = axis.groupsets;
    config.execution.preassembly =
        snap::preassembly_from_string(axis.preassembly);

    std::printf("running groupsets=%s preassembly=%s ...\n", axis.groupsets,
                axis.preassembly);
    std::fflush(stdout);
    api::Run run(config);
    Stopwatch watch;
    watch.start();
    const api::RunRecord record = run.execute();
    const double wall = watch.stop();
    records.push_back(api::to_json(record));

    const auto& keff = *record.keff;
    const long long sweeps = std::accumulate(
        keff.groupset_sweeps.begin(), keff.groupset_sweeps.end(), 0LL);
    const double storage_mb =
        static_cast<double>(record.config.preassembly_bytes) /
        (1024.0 * 1024.0);
    table.add_row({axis.groupsets, axis.preassembly, keff.k,
                   static_cast<long>(keff.outers), static_cast<long>(sweeps),
                   storage_mb, wall});

    summary.begin_object();
    summary.kv("groupsets", axis.groupsets);
    summary.kv("preassembly", axis.preassembly);
    summary.kv("k", keff.k);
    summary.kv("outers", keff.outers);
    summary.kv("sweeps", sweeps);
    summary.kv("preassembly_bytes",
               static_cast<long long>(record.config.preassembly_bytes));
    summary.kv("wall_seconds", wall);
    summary.end_object();
  }
  summary.end_array();
  std::remove(library_path.c_str());

  table.print("k-eigenvalue cost: groupset partition x preassembly mode");

  util::JsonWriter json;
  json.begin_object();
  json.kv("bench",
          "bench_keff: power-iteration cost across groupset partitions "
          "(per-group block Gauss-Seidel vs fused) x preassembly modes "
          "on the criticality configuration");
  json.kv("unsnap", api::version_info().summary());
  json.key("config").begin_object();
  json.kv("dims", dims);
  json.kv("outers", outers);
  json.end_object();
  json.key("keff").raw(summary.str());
  json.key("runs").begin_array();
  for (const std::string& record : records) json.raw(record);
  json.end_array();
  json.end_object();

  if (std::FILE* out = std::fopen(out_path, "w")) {
    std::fputs(json.str().c_str(), out);
    std::fclose(out);
    std::printf("\nwrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "bench_keff: cannot write %s\n", out_path);
    return 1;
  }
  return 0;
}
