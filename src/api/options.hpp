#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "angular/quadrature.hpp"
#include "linalg/solver.hpp"
#include "snap/input.hpp"
#include "sweep/scc.hpp"

namespace unsnap::api {

/// The declarative problem-definition vocabulary: one small struct per
/// concern, aggregated by api::RunConfig (run_config.hpp) instead of
/// filled into the flat snap::Input deck. Every struct is a plain
/// aggregate with the same defaults as the corresponding Input fields, so
/// `config.mesh = {.dims = {16, 16, 16}}` perturbs exactly one knob.

/// Spatial mesh: the twisted, shuffled brick of the paper plus the
/// schedule-construction controls that depend on the mesh alone.
struct MeshSpec {
  std::array<int, 3> dims{8, 8, 8};
  std::array<double, 3> extent{1.0, 1.0, 1.0};
  double twist = 0.001;            // radians
  std::uint64_t shuffle_seed = 1;  // 0 keeps structured numbering
  int order = 1;                   // finite element order
  bool validate = false;           // full mesh validation before solving
  /// Sweep cycle handling on strongly twisted meshes (see sweep::
  /// CycleStrategy): abort or lag-scc.
  sweep::CycleStrategy cycle_strategy = sweep::CycleStrategy::Abort;

  [[nodiscard]] bool operator==(const MeshSpec&) const = default;
};

/// Angular discretisation. nmom rides here because the flux-moment count
/// is a property of the angular treatment, not of the materials.
struct AngularSpec {
  int nang = 8;  // angles per octant
  angular::QuadratureKind quadrature = angular::QuadratureKind::SnapLike;
  int nmom = 1;  // Legendre scattering orders carried (1 = isotropic)

  [[nodiscard]] bool operator==(const AngularSpec&) const = default;
};

/// Boundary conditions per domain side (deck keys "-x", "+x", "-y",
/// "+y", "-z", "+z"; see side_from_string).
struct BoundarySpec {
  using Bc = snap::Input::Bc;
  std::array<Bc, 6> sides{Bc::Vacuum, Bc::Vacuum, Bc::Vacuum,
                          Bc::Vacuum, Bc::Vacuum, Bc::Vacuum};

  [[nodiscard]] bool operator==(const BoundarySpec&) const = default;
};

/// Iteration control (SNAP's epsi / iitm / oitm) and the inner scheme.
struct IterationSpec {
  double epsi = 1e-4;
  int iitm = 5;  // inners per outer (gmres: sweep budget per outer)
  int oitm = 1;  // outers
  /// true = the paper's timing setup: exactly iitm x oitm sweeps; false =
  /// converge, with iitm x oitm as a cap (keff: see xs::KeffSolver). A
  /// deck without the key binds false in mode = keff, true otherwise.
  bool fixed_iterations = true;
  /// Within-group solver: source iteration, or sweep-preconditioned
  /// matrix-free GMRES (src/accel/) for diffusive problems (c -> 1).
  snap::IterationScheme scheme = snap::IterationScheme::SourceIteration;
  int gmres_restart = 20;     // Arnoldi vectors per GMRES cycle
  int gmres_max_iters = 100;  // Krylov iterations per inner solve

  [[nodiscard]] bool operator==(const IterationSpec&) const = default;
};

/// KBA rank decomposition for the distributed (simulated-MPI) drivers in
/// src/comm/: px * py * pz volumetric rank blocks (pz = 1 is the classic
/// KBA column layout over the x-y plane), plus the halo-exchange
/// discipline (the paper's stale-halo block Jacobi schedule or the
/// pipelined exchange with single-domain iteration counts).
/// Single-domain scenarios ignore px/py/pz; the exchange choice is
/// lowered onto snap::Input::sweep_exchange either way.
struct DecompositionSpec {
  int px = 1;
  int py = 1;
  int pz = 1;
  snap::SweepExchange exchange = snap::SweepExchange::BlockJacobi;

  [[nodiscard]] int ranks() const { return px * py * pz; }

  [[nodiscard]] bool operator==(const DecompositionSpec&) const = default;
};

/// Execution configuration: the performance-study axes of the paper.
struct ExecutionSpec {
  snap::FluxLayout layout = snap::FluxLayout::AngleElementGroup;
  snap::ConcurrencyScheme scheme = snap::ConcurrencyScheme::ElementsGroups;
  linalg::SolverKind solver = linalg::SolverKind::GaussianElimination;
  int num_threads = 0;  // 0 = OpenMP default
  /// Pre-assembled operator mode (paper §IV-B-1): invert every
  /// per-(angle, element, group) system once up front, trading memory
  /// (see the run report's preassembly_bytes) for per-sweep speed.
  /// Single-domain runs only.
  snap::PreassemblyMode preassembly = snap::PreassemblyMode::None;
  bool time_solve = false;

  [[nodiscard]] bool operator==(const ExecutionSpec&) const = default;
};

/// Domain side index for the boundary array (same numbering as
/// snap::Input::boundary: 0:-x 1:+x 2:-y 3:+y 4:-z 5:+z). Throws
/// InvalidInput for anything but the six names above.
[[nodiscard]] int side_from_string(const std::string& name);
[[nodiscard]] std::string side_to_string(int side);

/// Boundary-condition names: "vacuum" | "reflective".
[[nodiscard]] snap::Input::Bc bc_from_string(const std::string& name);
[[nodiscard]] std::string to_string(snap::Input::Bc bc);

}  // namespace unsnap::api
