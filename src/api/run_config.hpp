#pragma once

#include <array>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "api/options.hpp"
#include "fem/geometry.hpp"
#include "snap/data.hpp"

namespace unsnap::core {
class Discretization;
struct ProblemData;
}  // namespace unsnap::core

namespace unsnap::api {

/// What a deck asks the Run facade to do. Solve is the standard
/// stationary transport solve (serial, or distributed when the
/// decomposition spec names more than one rank); Schedule builds the
/// discretisation and reports sweep-schedule structure without solving;
/// Mms overwrites materials/sources with the trigonometric manufactured
/// solution and records the L2 error; Time runs the backward-Euler time
/// integrator over the [time] section's steps; Keff runs the k-eigenvalue
/// power iteration over an [xs] library's fission data (xs::KeffSolver).
enum class RunMode { Solve, Schedule, Mms, Time, Keff };

[[nodiscard]] std::string to_string(RunMode mode);
[[nodiscard]] RunMode run_mode_from_string(const std::string& name);

/// Axis-aligned open box used by the deck's material/source region lists:
/// a centroid is inside when lo[i] < c[i] < hi[i] on every axis, matching
/// the strict `<` threshold tests of the scenario lambdas it replaces.
/// Unbounded sides are +-inf (spelled `inf` / `-inf` in decks).
struct Box {
  std::array<double, 3> lo{-std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
  std::array<double, 3> hi{std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::infinity()};

  [[nodiscard]] bool contains(const fem::Vec3& c) const {
    for (int i = 0; i < 3; ++i)
      if (!(lo[static_cast<std::size_t>(i)] < c[i] &&
            c[i] < hi[static_cast<std::size_t>(i)]))
        return false;
    return true;
  }
  [[nodiscard]] bool operator==(const Box&) const = default;
};

/// Deck-expressible materials: either SNAP's generated route (mat_opt /
/// scattering_ratio over make_cross_sections) or the custom route every
/// bespoke scenario in this repo uses — per-material total cross sections
/// with a per-material scattering ratio (isotropic, in-group only,
/// constant across groups) assigned to elements by an ordered
/// first-match-wins region list over centroids. Setting `sigt` switches
/// to the custom route.
struct MaterialRegion {
  int material = 0;
  Box box;
  [[nodiscard]] bool operator==(const MaterialRegion&) const = default;
};

struct MaterialModel {
  int num_groups = 4;
  int mat_opt = 1;
  double scattering_ratio = 0.5;
  // --- custom route (active when sigt is non-empty) --------------------
  std::vector<double> sigt{};        // per-material totals
  std::vector<double> scattering{};  // per-material ratios c = sigs/sigt
  int default_material = 0;          // id where no region matches
  std::vector<MaterialRegion> regions{};  // evaluated in order, first wins
  // --- library route ([xs] section active) -----------------------------
  /// `material = <name> <name> ...`: the i-th library material name
  /// becomes deck material id i, referenced by `region` / a
  /// `default_material` exactly like the custom route. Empty = every
  /// library material in library order.
  std::vector<std::string> material_names{};

  [[nodiscard]] bool custom() const { return !sigt.empty(); }
  /// The diagonal in-group cross-section set of the custom route.
  [[nodiscard]] snap::CrossSections cross_sections() const;
  [[nodiscard]] bool operator==(const MaterialModel&) const = default;
};

/// The [xs] section: a multigroup cross-section library file
/// (xs::read_library_file format) plus the k-eigenvalue controls of
/// `mode = keff`. With `file` set, the deck's materials lower through the
/// library instead of the generated/custom routes; relative paths resolve
/// against the deck file's directory.
struct XsSpec {
  std::string file{};     // library path; empty = section inactive
  /// Groupset partition "a:b,c:d,..." for the keff block Gauss-Seidel;
  /// empty = the maximal downscatter partition (xs::default_groupsets).
  std::string groupsets{};
  double k_tol = 1e-6;        // |k_new - k| convergence criterion
  double fission_tol = 1e-5;  // max relative fission-source change
  int max_outers = 100;       // power-iteration outer cap
  bool extrapolate = false;   // shifted fission-source extrapolation

  [[nodiscard]] bool active() const { return !file.empty(); }
  [[nodiscard]] bool operator==(const XsSpec&) const = default;
};

/// Deck-expressible external source: SNAP's src_opt placements or a
/// first-match-wins region list of constant strengths (strength 0 outside
/// every region). `group` restricts a region to one energy group
/// (-1 = all groups, the scenarios' behaviour).
struct SourceRegion {
  double strength = 1.0;
  Box box;
  int group = -1;
  [[nodiscard]] bool operator==(const SourceRegion&) const = default;
};

struct SourceModel {
  int src_opt = 1;
  std::vector<SourceRegion> regions{};  // active when non-empty

  [[nodiscard]] bool custom() const { return !regions.empty(); }
  [[nodiscard]] bool operator==(const SourceModel&) const = default;
};

/// The [time] section (RunMode::Time): backward-Euler steps with SNAP's
/// generated group speeds. `initial` is the uniform isotropic initial
/// angular flux; `zero_source` drops the deck's external source so the
/// pulse decays freely (decks/pulse_decay.inp).
struct TimeSpec {
  double dt = 0.1;
  int steps = 8;
  double initial = 1.0;
  bool zero_source = true;
  [[nodiscard]] bool operator==(const TimeSpec&) const = default;
};

/// Output routing for a deck-driven run. `json_path` is normally injected
/// by the driver's --json flag rather than the deck itself.
struct OutputSpec {
  bool report = true;    // render the human report after the run
  bool verbose = false;  // attach the live progress observer
  std::string json_path;
  [[nodiscard]] bool operator==(const OutputSpec&) const = default;
};

/// The unified declarative run description: everything `unsnap --deck`
/// can express, aggregating the existing option structs plus the
/// deck-only material/source/time models. Loads from and saves to
/// SNAP-style deck files with full round-trip fidelity
/// (read_deck_text(write_deck(cfg)) == cfg), and lowers straight onto the
/// core solver's inputs (to_input + problem_data) for the api::Run facade.
struct RunConfig {
  std::string title;  // free-form run label (config echo / JSON)
  RunMode mode = RunMode::Solve;
  MeshSpec mesh;
  AngularSpec angular;
  MaterialModel materials;
  XsSpec xs;
  SourceModel source;
  BoundarySpec boundary;
  IterationSpec iteration;
  DecompositionSpec decomposition;
  ExecutionSpec execution;
  TimeSpec time;
  OutputSpec output;

  /// Full validation: the flat deck's field ranges (snap::Input::
  /// validate) plus the cross-field rules (custom-route array shapes,
  /// region material ids, [xs] library shape, mode constraints). Reads
  /// the [xs] library once when the section is active.
  void validate() const;

  /// Lower onto the flat deck the core solvers read: mesh, angular,
  /// iteration and execution fields plus the generated material/source
  /// options. Region lists and the [xs] library do not lower here; they
  /// shape problem_data().
  [[nodiscard]] snap::Input to_input() const;

  /// Build the problem data over `disc` for whichever route the deck
  /// names: cross sections from the sigt lists, the [xs] library (read
  /// here) or SNAP's generator; materials from the region list or
  /// mat_opt; the source from the region list or src_opt. The generated
  /// route is exactly core::ProblemData(disc, to_input()).
  [[nodiscard]] core::ProblemData problem_data(
      const core::Discretization& disc) const;

  [[nodiscard]] bool operator==(const RunConfig&) const;
};

/// Parse a RunConfig from deck text/stream/file. Errors (unknown section,
/// unknown key, duplicate scalar key, bad enum, type mismatch, out-of-
/// range value) throw InvalidInput prefixed `source:line[:column]:`.
[[nodiscard]] RunConfig read_deck(std::istream& in,
                                  const std::string& source);
[[nodiscard]] RunConfig read_deck_text(const std::string& text,
                                       const std::string& source = "<deck>");
[[nodiscard]] RunConfig read_deck_file(const std::string& path);

/// Serialise to deck text: every field in a stable section/key order,
/// defaults included (a dumped deck is a complete, self-documenting
/// record of the run). read_deck_text(write_deck(c)) == c exactly.
[[nodiscard]] std::string write_deck(const RunConfig& config);

}  // namespace unsnap::api
