#include "core/transport_solver.hpp"

#include <omp.h>

#include "accel/dsa.hpp"
#include "accel/inner.hpp"
#include "mesh/mesh_builder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace unsnap::core {

namespace {

// One observation per full sweep (8 octants) of the solver's domain, a
// rank's subdomain in distributed runs, not per element: cheap enough to
// stay on unconditionally, so `unsnap-client metrics` sees solver
// activity even for untraced runs.
void count_sweep(double seconds) {
  static obs::Counter& total = obs::MetricsRegistry::global().counter(
      "unsnap_sweeps_total",
      "Transport sweeps executed (distributed runs: one per rank sweep)");
  static obs::Histogram& latency = obs::MetricsRegistry::global().histogram(
      "unsnap_sweep_seconds", "Wall time of one transport sweep",
      obs::Histogram::latency_bounds());
  total.inc();
  latency.observe(seconds);
}

mesh::HexMesh build_mesh(const snap::Input& input) {
  input.validate();
  mesh::MeshOptions options;
  options.dims = input.dims;
  options.extent = {input.extent[0], input.extent[1], input.extent[2]};
  options.twist = input.twist;
  options.shuffle_seed = input.shuffle_seed;
  return mesh::build_brick_mesh(options);
}

// Thread count must be pinned before the Sweeper sizes its per-thread
// scratch; returns the input unchanged so this can run in the initialiser
// list ahead of the discretisation.
const snap::Input& pin_threads(const snap::Input& input) {
  if (input.num_threads > 0) omp_set_num_threads(input.num_threads);
  return input;
}

SweepConfig make_sweep_config(const snap::Input& input) {
  SweepConfig config;
  config.scheme = input.scheme;
  config.solver = input.solver;
  config.loop_order = input.layout;
  config.ng = input.ng;
  config.time_solve = input.time_solve;
  config.nmom = input.nmom;
  return config;
}

}  // namespace

TransportSolver::TransportSolver(const snap::Input& input)
    : TransportSolver(build_mesh(input), input) {}

TransportSolver::TransportSolver(mesh::HexMesh mesh, const snap::Input& input)
    : TransportSolver(
          (pin_threads(input),
           std::make_shared<const Discretization>(
               std::move(mesh), input.order, input.quadrature, input.nang,
               input.cycle_strategy)),
          input) {}

TransportSolver::TransportSolver(std::shared_ptr<const Discretization> disc,
                                 const snap::Input& input)
    : TransportSolver(disc, input, ProblemData(*disc, input)) {}

TransportSolver::TransportSolver(std::shared_ptr<const Discretization> disc,
                                 const snap::Input& input,
                                 ProblemData problem)
    : input_(pin_threads(input)),
      disc_(std::move(disc)),
      problem_(std::move(problem)),
      assembler_(*disc_, problem_),
      sweeper_(assembler_, make_sweep_config(input)),
      sources_(*disc_, problem_),
      psi_(input.layout, disc_->nang(), disc_->num_elements(), input.ng,
           disc_->num_nodes()),
      phi_(input.layout, disc_->num_elements(), input.ng,
           disc_->num_nodes()),
      phi_old_(input.layout, disc_->num_elements(), input.ng,
               disc_->num_nodes()),
      qout_(input.layout, disc_->num_elements(), input.ng,
            disc_->num_nodes()),
      qin_(input.layout, disc_->num_elements(), input.ng,
           disc_->num_nodes()),
      tolerance_(input.epsi) {
  require(disc_->ref().order() == input_.order,
          "TransportSolver: input order does not match discretisation");
  require(disc_->nang() == input_.nang,
          "TransportSolver: input nang does not match discretisation");
  require(problem_.xs.ng == input_.ng,
          "TransportSolver: problem data group count does not match input");
  require(problem_.xs.nmom >= input_.nmom,
          "TransportSolver: cross sections carry fewer scattering orders "
          "than input.nmom");
  if (input_.any_reflective()) boundary_values();  // activate the storage
  for (int s = 0; s < disc_->schedules().unique_count(); ++s)
    if (!disc_->schedules().unique_schedule(s).lagged_faces().empty()) {
      lag_ = LagSnapshot(disc_->schedules(), input_.ng,
                         disc_->nodes_per_face());
      break;
    }
  if (input_.nmom > 1) {
    const int extra = input_.nmom * input_.nmom - 1;
    const NodalField proto(input_.layout, disc_->num_elements(), input_.ng,
                           disc_->num_nodes());
    phi_mom_.assign(static_cast<std::size_t>(extra), proto);
    qout_mom_.assign(static_cast<std::size_t>(extra), proto);
    qin_mom_.assign(static_cast<std::size_t>(extra), proto);
  }
}

TransportSolver::~TransportSolver() = default;

SweepState TransportSolver::make_state() {
  SweepState state;
  state.psi = &psi_;
  state.lag = lag_.active() ? &lag_ : nullptr;
  state.phi = &phi_;
  state.qin = &qin_;
  state.qang = qang_.get();
  state.bc = bc_.active() ? &bc_ : nullptr;
  state.pre = pre_.get();
  if (input_.nmom > 1) {
    state.phi_hi = &phi_mom_;
    state.qmom_hi = &qin_mom_;
    state.moment_count = input_.nmom * input_.nmom;
  }
  return state;
}

void TransportSolver::update_outer_source() {
  OBS_SPAN("source.outer");
  sources_.update_outer(phi_, qout_);
  if (input_.nmom > 1) sources_.update_outer_moments(phi_mom_, qout_mom_);
  if (coupling_.size() != 0) {
    double* q = qout_.data();
    const double* c = coupling_.data();
    const auto count = static_cast<std::ptrdiff_t>(qout_.size());
#pragma omp parallel for schedule(static)
    for (std::ptrdiff_t i = 0; i < count; ++i) q[i] += c[i];
    for (std::size_t m = 0; m < coupling_mom_.size(); ++m) {
      double* qm = qout_mom_[m].data();
      const double* cm = coupling_mom_[m].data();
#pragma omp parallel for schedule(static)
      for (std::ptrdiff_t i = 0; i < count; ++i) qm[i] += cm[i];
    }
  }
}

NodalField& TransportSolver::coupling_source() {
  if (coupling_.size() == 0)
    coupling_ = NodalField(input_.layout, disc_->num_elements(), input_.ng,
                           disc_->num_nodes());
  return coupling_;
}

std::vector<NodalField>& TransportSolver::coupling_source_moments() {
  const int extra = input_.nmom * input_.nmom - 1;
  if (coupling_mom_.empty() && extra > 0)
    coupling_mom_.assign(static_cast<std::size_t>(extra),
                         NodalField(input_.layout, disc_->num_elements(),
                                    input_.ng, disc_->num_nodes()));
  return coupling_mom_;
}

void TransportSolver::update_inner_source() {
  OBS_SPAN("source.inner");
  sources_.update_inner(phi_, qout_, qin_);
  if (input_.nmom > 1)
    sources_.update_inner_moments(phi_mom_, qout_mom_, qin_mom_);
}

void TransportSolver::capture_lag_snapshot() {
  const sweep::ScheduleSet& schedules = disc_->schedules();
  const mesh::HexMesh& mesh = disc_->mesh();
  const ElementIntegrals& ints = disc_->integrals();
  const int nf = disc_->nodes_per_face();
  for (int oct = 0; oct < angular::kOctants; ++oct)
    for (int a = 0; a < disc_->nang(); ++a) {
      const auto& lagged = schedules.get(oct, a).lagged_faces();
      for (std::size_t slot = 0; slot < lagged.size(); ++slot) {
        const auto& [e, f] = lagged[slot];
        const int nbr = mesh.neighbor(e, f);
        const int* perm = ints.neighbor_perm(e, f);
        for (int g = 0; g < input_.ng; ++g) {
          const double* pn = psi_.at(oct, a, nbr, g);
          double* out = lag_.row(oct, a, static_cast<int>(slot), g);
          for (int j = 0; j < nf; ++j) out[j] = pn[perm[j]];
        }
      }
    }
}

void TransportSolver::sweep(bool frozen_coupling) {
  OBS_SPAN("solver.sweep", "elements", disc_->num_elements());
  sweep_begin(frozen_coupling);
  for (int oct = 0; oct < angular::kOctants; ++oct) sweep_octant(oct);
  sweep_end(frozen_coupling);
}

void TransportSolver::sweep_begin(bool frozen_coupling) {
  if (!frozen_coupling) {
    phi_old_ = phi_;
    if (lag_.active()) capture_lag_snapshot();
  }
  SweepState state = make_state();
  sweeper_.sweep_begin(state);
}

void TransportSolver::sweep_octant(int oct) {
  SweepState state = make_state();
  sweeper_.sweep_octant(state, oct);
}

void TransportSolver::sweep_end(bool frozen_coupling) {
  sweeper_.sweep_end();
  assemble_solve_seconds_ += sweeper_.last_sweep_seconds();
  solve_seconds_ += sweeper_.last_solve_seconds();
  count_sweep(sweeper_.last_sweep_seconds());
  if (!frozen_coupling && input_.any_reflective())
    apply_reflective_boundaries();
}

void TransportSolver::refresh_lagged_couplings() {
  if (input_.any_reflective()) apply_reflective_boundaries();
  if (lag_.active()) capture_lag_snapshot();
}

void TransportSolver::apply_reflective_boundaries() {
  // Specular reflection off the (untwisted) domain planes: the outgoing
  // trace of direction Omega feeds the incoming slot of the direction with
  // the face-normal component flipped, which is the same angle index in
  // the axis-mirrored octant. One sweep of lag — the reflected inflow
  // converges with the source iteration, like the scattering source.
  const mesh::HexMesh& mesh = disc_->mesh();
  const int nang = disc_->nang();
  const int nf = disc_->nodes_per_face();
  for (const auto& [e, f] : mesh.boundary_faces()) {
    const int side = mesh.boundary_kind(e, f);
    if (side < 0 || side >= 6) continue;  // remote faces keep halo data
    if (input_.boundary[side] != snap::Input::Bc::Reflective) continue;
    const int axis = side / 2;
    const int bface = mesh.boundary_face_id(e, f);
    const int* fn = disc_->integrals().face_nodes(f);
    for (int oct = 0; oct < angular::kOctants; ++oct) {
      // Octant bit set means negative component; the outgoing side of a
      // +axis boundary is the positive (bit clear) octant and vice versa.
      const bool outgoing = ((oct >> axis) & 1) == (side % 2 == 0 ? 1 : 0);
      if (!outgoing) continue;
      const int mirror = oct ^ (1 << axis);
      for (int a = 0; a < nang; ++a)
        for (int g = 0; g < input_.ng; ++g) {
          const double* ps = psi_.at(oct, a, e, g);
          double* target = bc_.at(bface, mirror, a, g);
          for (int j = 0; j < nf; ++j) target[j] = ps[fn[j]];
        }
    }
  }
}

double TransportSolver::inner_change() const {
  return max_relative_change(phi_, phi_old_);
}

IterationResult TransportSolver::run(const IterationHooks* hooks) {
  if (input_.iteration_scheme == snap::IterationScheme::Gmres)
    return accel::run_gmres(*this, hooks);

  // Single-domain defaults for the distributable seams (IterationHooks).
  const auto sweep_once = [&] {
    if (hooks != nullptr && hooks->sweep) hooks->sweep();
    else sweep();
  };
  const auto global_max = [&](double v) {
    return hooks != nullptr && hooks->reduce_max ? hooks->reduce_max(v) : v;
  };

  IterationResult result;
  Stopwatch total;
  total.start();
  // DSA corrects every sweep of a converging single-domain solve. The
  // operator is built at the first correction, after the first observer
  // event, and reused by every later run (keff outers, time steps).
  const bool accelerate = accel::accelerates_source_iteration(input_, hooks);
  const int pcg_before = dsa_ ? dsa_->pcg_iterations() : 0;
  result.diffusion_preconditioned = accelerate;

  NodalField phi_outer = phi_;
  for (int outer = 0; outer < input_.oitm; ++outer) {
    if (observer_ != nullptr) observer_->on_outer_begin(outer);
    update_outer_source();
    phi_outer = phi_;
    for (int inner = 0; inner < input_.iitm; ++inner) {
      update_inner_source();
      sweep_once();
      if (accelerate) diffusion_preconditioner().correct(phi_, phi_old_);
      ++result.inners;
      ++result.sweeps;
      result.final_inner_change = global_max(inner_change());
      result.inner_history.push_back(result.final_inner_change);
      if (observer_ != nullptr)
        observer_->on_inner(result.inners - 1, result.sweeps,
                            result.final_inner_change);
      if (!input_.fixed_iterations &&
          result.final_inner_change < tolerance_)
        break;
    }
    ++result.outers;
    result.final_outer_change =
        global_max(max_relative_change(phi_, phi_outer));
    // SNAP's outer test is a factor 100 looser than the inner one.
    result.converged = result.final_outer_change < 100.0 * tolerance_ &&
                       result.final_inner_change < tolerance_;
    if (observer_ != nullptr)
      observer_->on_outer_end(outer, result.final_outer_change,
                              result.converged);
    if (result.converged && !input_.fixed_iterations) break;
  }

  if (dsa_) result.dsa_pcg_iters = dsa_->pcg_iterations() - pcg_before;
  result.total_seconds = total.stop();
  result.assemble_solve_seconds = assemble_solve_seconds_;
  result.solve_seconds = solve_seconds_;
  return result;
}

void TransportSolver::set_tolerance(double tolerance) {
  require(tolerance > 0.0, "TransportSolver: tolerance must be positive");
  tolerance_ = tolerance;
}

BoundaryAngularFlux& TransportSolver::boundary_values() {
  if (!bc_.active()) {
    bc_ = BoundaryAngularFlux(disc_->mesh().num_boundary_faces(), disc_->nang(),
                              input_.ng, disc_->nodes_per_face());
  }
  return bc_;
}

AngularFlux& TransportSolver::angular_source() {
  if (!qang_) {
    qang_ = std::make_unique<AngularFlux>(input_.layout, disc_->nang(),
                                          disc_->num_elements(), input_.ng,
                                          disc_->num_nodes());
  }
  return *qang_;
}

accel::DiffusionPreconditioner& TransportSolver::diffusion_preconditioner() {
  if (!dsa_) dsa_ = std::make_unique<accel::DiffusionPreconditioner>(*this);
  return *dsa_;
}

void TransportSolver::enable_preassembly() {
  pre_ = std::make_shared<const PreassembledOperator>(assembler_);
}

void TransportSolver::set_preassembly(
    std::shared_ptr<const PreassembledOperator> pre) {
  if (pre != nullptr) {
    require(pre->nang() == disc_->nang() &&
                pre->num_elements() == disc_->num_elements() &&
                pre->num_groups() == problem_.xs.ng &&
                pre->num_nodes() == disc_->num_nodes(),
            "set_preassembly: operator dimensions do not match this "
            "solver's discretisation");
  }
  pre_ = std::move(pre);
}

BalanceReport TransportSolver::balance() const {
  return compute_balance(*disc_, problem_, psi_, phi_,
                         bc_.active() ? &bc_ : nullptr, qang_.get());
}

}  // namespace unsnap::core
