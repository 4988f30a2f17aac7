#include "xs/keff.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "accel/dsa.hpp"
#include "angular/harmonics.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace unsnap::xs {

using core::NodalField;

namespace {

// Inner tolerance of the converging policy (fixed_iterations = false):
// outer k's groupset solves stop at max(kEpsiFraction * epsi,
// f * delta_{k-1}), the same tenth GMRES takes of its inner test for its
// residual target. On decks/criticality.inp the group averages then end
// within 6e-8 of the converged ones; flooring at epsi itself ends 6.5e-7
// off, past the 5e-7 the benchmark gate allows.
constexpr double kEpsiFraction = 0.1;
// f for unaccelerated inners, plain source iteration and GMRES alike. On
// decks/criticality.inp a factor of 0.3 ended 2.4e-7 off; 1.0 took 150
// sweeps instead of 223 and ended 4.9e-7 off, at the gate. Under GMRES
// 1.0 took 204 sweeps over 41 outers against 217 at 0.1.
constexpr double kFissionChangeFraction = 0.1;
// f for DSA-corrected source iteration, which contracts fast enough that
// stopping at the last fission-source change costs about one sweep per
// groupset and outer. decks/criticality.inp took 56 sweeps over 25
// outers and ended 3.3e-8 off perfbench/reference.json and 6.0e-8 off a
// tightly converged fixed-inner run.
constexpr double kAcceleratedFissionChangeFraction = 1.0;

}  // namespace

KeffSolver::KeffSolver(std::shared_ptr<const core::Discretization> disc,
                       const snap::Input& input,
                       const core::ProblemData& problem, KeffOptions options)
    : disc_(std::move(disc)),
      input_(input),
      problem_(problem),
      options_(std::move(options)) {
  require(problem_.xs.has_fission(),
          "keff: the cross sections carry no fission data (nu_sigf/chi)");
  require(problem_.xs.ng == input_.ng,
          "keff: cross-section ng disagrees with the input");
  require(options_.k_tol > 0.0 && options_.fission_tol > 0.0,
          "keff: tolerances must be positive");
  require(options_.max_outers >= 1, "keff: max_outers must be at least 1");

  sets_ = options_.groupsets.empty() ? default_groupsets(problem_.xs)
                                     : options_.groupsets;
  require(!sets_.empty() && sets_.front().lo == 0 &&
              sets_.back().hi == input_.ng - 1,
          "keff: groupsets must cover groups 0.." +
              std::to_string(input_.ng - 1));
  for (std::size_t s = 0; s < sets_.size(); ++s) {
    require(sets_[s].lo <= sets_[s].hi, "keff: groupset lo > hi");
    if (s > 0)
      require(sets_[s].lo == sets_[s - 1].hi + 1,
              "keff: groupsets must tile the groups contiguously");
  }

  const int ne = disc_->num_elements();
  const int n = disc_->num_nodes();

  phi_ = NodalField(input_.layout, ne, input_.ng, n);
  if (input_.nmom > 1) {
    const int extra = input_.nmom * input_.nmom - 1;
    phi_mom_.assign(static_cast<std::size_t>(extra),
                    NodalField(input_.layout, ne, input_.ng, n));
  }
  fission_.assign(static_cast<std::size_t>(ne) * n, 0.0);

  // One TransportSolver per groupset over the shared discretisation: the
  // sliced cross sections keep the *global* totals (so absorption stays
  // physical in the per-set balance) and carry only the in-set transfer
  // block; everything that couples across the set boundary arrives via
  // the coupling source. The external source is zero — keff is a pure
  // eigenvalue problem.
  for (const GroupRange& set : sets_) {
    NDArray<double, 2> qz(
        {static_cast<std::size_t>(ne), static_cast<std::size_t>(set.size())},
        0.0);
    snap::Input si = input_;
    si.ng = set.size();
    core::ProblemData pd(*disc_, problem_.xs.slice(set.lo, set.hi),
                         problem_.material, std::move(qz));
    solvers_.push_back(std::make_unique<core::TransportSolver>(
        disc_, si, std::move(pd)));
  }
}

void KeffSolver::set_observer(core::IterationObserver* observer) {
  observer_ = observer;
  for (auto& solver : solvers_) solver->set_observer(observer);
}

void KeffSolver::enable_preassembly() {
  for (auto& solver : solvers_) solver->enable_preassembly();
}

std::size_t KeffSolver::preassembly_bytes() const {
  std::size_t bytes = 0;
  for (const auto& solver : solvers_)
    if (solver->preassembly() != nullptr)
      bytes += solver->preassembly()->bytes();
  return bytes;
}

double KeffSolver::production(const std::vector<double>& fission) const {
  const core::ElementIntegrals& ints = disc_->integrals();
  const int ne = disc_->num_elements();
  const int n = disc_->num_nodes();
  double total = 0.0;
  for (int e = 0; e < ne; ++e) {
    const double* w = ints.node_weights(e);
    const double* f = fission.data() + static_cast<std::size_t>(e) * n;
    double acc = 0.0;
    for (int i = 0; i < n; ++i) acc += w[i] * f[i];
    total += acc;
  }
  return total;
}

void KeffSolver::compute_fission(std::vector<double>& out) const {
  const int ne = disc_->num_elements();
  const int n = disc_->num_nodes();
  out.assign(static_cast<std::size_t>(ne) * n, 0.0);
  for (int e = 0; e < ne; ++e) {
    const Material& mat = material_of(e);
    if (!mat.fissile()) continue;
    double* f = out.data() + static_cast<std::size_t>(e) * n;
    for (int g = 0; g < input_.ng; ++g) {
      const double nsf = mat.nu_sigf[static_cast<std::size_t>(g)];
      if (nsf == 0.0) continue;
      const double* ph = phi_.at(e, g);
      for (int i = 0; i < n; ++i) f[i] += nsf * ph[i];
    }
  }
}

void KeffSolver::fill_coupling(int set) {
  const GroupRange& range = sets_[static_cast<std::size_t>(set)];
  core::TransportSolver& solver = *solvers_[static_cast<std::size_t>(set)];
  const int ne = disc_->num_elements();
  const int n = disc_->num_nodes();
  const int ng = input_.ng;
  const double inv_k = 1.0 / k_;

  NodalField& coupling = solver.coupling_source();
#pragma omp parallel for schedule(static)
  for (int e = 0; e < ne; ++e) {
    const Material& mat = material_of(e);
    const double* f = fission_.data() + static_cast<std::size_t>(e) * n;
    for (int gl = 0; gl < range.size(); ++gl) {
      const int g = range.lo + gl;
      double* c = coupling.at(e, gl);
      const double chi_over_k =
          mat.fissile() ? mat.chi[static_cast<std::size_t>(g)] * inv_k : 0.0;
      for (int i = 0; i < n; ++i) c[i] = chi_over_k * f[i];
      for (int gp = 0; gp < ng; ++gp) {
        if (gp >= range.lo && gp <= range.hi) continue;
        const double s = mat.sigs(0, gp, g);
        if (s == 0.0) continue;
        const double* ph = phi_.at(e, gp);
        for (int i = 0; i < n; ++i) c[i] += s * ph[i];
      }
    }
  }

  if (input_.nmom > 1) {
    std::vector<NodalField>& cm = solver.coupling_source_moments();
    for (std::size_t mom = 0; mom < cm.size(); ++mom) {
      // Flat harmonic index mom + 1; fission is isotropic, so only the
      // out-of-set scattering of degree l feeds the moment source.
      const int l =
          angular::SphericalHarmonics::degree_of(static_cast<int>(mom) + 1);
      NodalField& target = cm[mom];
      const NodalField& phim = phi_mom_[mom];
#pragma omp parallel for schedule(static)
      for (int e = 0; e < ne; ++e) {
        const Material& mat = material_of(e);
        for (int gl = 0; gl < range.size(); ++gl) {
          const int g = range.lo + gl;
          double* c = target.at(e, gl);
          for (int i = 0; i < n; ++i) c[i] = 0.0;
          for (int gp = 0; gp < ng; ++gp) {
            if (gp >= range.lo && gp <= range.hi) continue;
            const double s = mat.sigs(l, gp, g);
            if (s == 0.0) continue;
            const double* ph = phim.at(e, gp);
            for (int i = 0; i < n; ++i) c[i] += s * ph[i];
          }
        }
      }
    }
  }
}

void KeffSolver::scatter_flux(int set) {
  const GroupRange& range = sets_[static_cast<std::size_t>(set)];
  core::TransportSolver& solver = *solvers_[static_cast<std::size_t>(set)];
  const int ne = disc_->num_elements();
  const int n = disc_->num_nodes();
  NodalField& sp = solver.scalar_flux();
  for (int e = 0; e < ne; ++e)
    for (int gl = 0; gl < range.size(); ++gl) {
      const double* src = phi_.at(e, range.lo + gl);
      double* dst = sp.at(e, gl);
      for (int i = 0; i < n; ++i) dst[i] = src[i];
    }
  std::vector<NodalField>& smom = solver.flux_moments();
  for (std::size_t mom = 0; mom < smom.size(); ++mom)
    for (int e = 0; e < ne; ++e)
      for (int gl = 0; gl < range.size(); ++gl) {
        const double* src = phi_mom_[mom].at(e, range.lo + gl);
        double* dst = smom[mom].at(e, gl);
        for (int i = 0; i < n; ++i) dst[i] = src[i];
      }
}

void KeffSolver::gather_flux(int set) {
  const GroupRange& range = sets_[static_cast<std::size_t>(set)];
  const core::TransportSolver& solver =
      *solvers_[static_cast<std::size_t>(set)];
  const int ne = disc_->num_elements();
  const int n = disc_->num_nodes();
  const NodalField& sp = solver.scalar_flux();
  for (int e = 0; e < ne; ++e)
    for (int gl = 0; gl < range.size(); ++gl) {
      const double* src = sp.at(e, gl);
      double* dst = phi_.at(e, range.lo + gl);
      for (int i = 0; i < n; ++i) dst[i] = src[i];
    }
  const std::vector<NodalField>& smom = solver.flux_moments();
  for (std::size_t mom = 0; mom < smom.size(); ++mom)
    for (int e = 0; e < ne; ++e)
      for (int gl = 0; gl < range.size(); ++gl) {
        const double* src = smom[mom].at(e, gl);
        double* dst = phi_mom_[mom].at(e, range.lo + gl);
        for (int i = 0; i < n; ++i) dst[i] = src[i];
      }
}

void KeffSolver::scale_state(double factor) {
  auto scale = [factor](double* data, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) data[i] *= factor;
  };
  scale(phi_.data(), phi_.size());
  for (NodalField& mom : phi_mom_) scale(mom.data(), mom.size());
  for (double& f : fission_) f *= factor;
  for (auto& solver : solvers_) {
    scale(solver->scalar_flux().data(), solver->scalar_flux().size());
    scale(solver->angular_flux().data(), solver->angular_flux().size());
    for (NodalField& mom : solver->flux_moments())
      scale(mom.data(), mom.size());
    // Reflective mirror data is psi-derived state and is read at the next
    // sweep start, so it scales with the rest.
    if (solver->has_boundary_values())
      scale(solver->boundary_values().data(),
            solver->boundary_values().size());
  }
}

KeffResult KeffSolver::run() {
  static obs::Gauge& keff_gauge = obs::MetricsRegistry::global().gauge(
      "unsnap_keff",
      "k-effective estimate after the latest power-iteration outer");

  KeffResult result;
  result.groupset_sweeps.assign(sets_.size(), 0);
  Stopwatch total;
  total.start();

  // Flat initial guess, normalised to unit fission production.
  phi_.fill(1.0);
  for (NodalField& mom : phi_mom_) mom.fill(0.0);
  compute_fission(fission_);
  const double p0 = production(fission_);
  require(p0 > 0.0,
          "keff: the initial flux produces no fission source (no fissile "
          "material intersects the mesh)");
  k_ = 1.0;
  scale_state(1.0 / p0);

  const bool converging = !input_.fixed_iterations;
  std::vector<double> fission_new;
  double previous_change = 0.0;
  for (int outer = 0; outer < options_.max_outers; ++outer) {
    OBS_SPAN("keff.outer", "outer", outer);

    if (converging) {
      const double last_change = outer == 0 ? 1.0 : previous_change;
      for (auto& solver : solvers_) {
        const double fraction =
            accel::accelerates_source_iteration(solver->input(), nullptr)
                ? kAcceleratedFissionChangeFraction
                : kFissionChangeFraction;
        solver->set_tolerance(std::max(kEpsiFraction * input_.epsi,
                                       fraction * last_change));
      }
    }

    // Block Gauss-Seidel over the groupsets in downscatter order: each
    // set solves with the freshest global flux of every other set.
    for (int s = 0; s < num_groupsets(); ++s) {
      fill_coupling(s);
      scatter_flux(s);
      const core::IterationResult r =
          solvers_[static_cast<std::size_t>(s)]->run();
      result.inners += r.inners;
      result.sweeps += r.sweeps;
      result.krylov_iters += r.krylov_iters;
      result.diffusion_preconditioned = r.diffusion_preconditioned;
      result.dsa_pcg_iters += r.dsa_pcg_iters;
      result.groupset_sweeps[static_cast<std::size_t>(s)] += r.sweeps;
      gather_flux(s);
    }

    compute_fission(fission_new);
    const double p = production(fission_new);
    require(p > 0.0,
            "keff: fission production vanished during the power iteration");
    const double k_new = k_ * p;
    const double k_change = std::abs(k_new - k_);
    k_ = k_new;

    // Renormalise everything to unit production so the iterate cannot
    // drift towards overflow/underflow at k far from 1.
    const double inv_p = 1.0 / p;
    for (double& f : fission_new) f *= inv_p;
    scale_state(inv_p);

    double change = 0.0;
    for (std::size_t i = 0; i < fission_new.size(); ++i) {
      const double d = std::abs(fission_new[i] - fission_[i]);
      const double ref = std::abs(fission_[i]);
      const double rel = ref > 1e-12 ? d / ref : d;
      if (rel > change) change = rel;
    }
    const double sigma =
        previous_change > 0.0 ? change / previous_change : 0.0;
    if (outer > 0) result.dominance_ratio = sigma;

    // Shifted-source extrapolation (Lyusternik): when the error decays
    // geometrically with ratio sigma, the limit lies sigma/(1 - sigma)
    // steps ahead of the last step. Applied sparingly (every fifth
    // outer) so the sigma estimate re-settles in between.
    if (options_.extrapolate && outer > 0 && (outer + 1) % 5 == 0 &&
        sigma > 0.05 && sigma < 0.95) {
      const double theta = sigma / (1.0 - sigma);
      for (std::size_t i = 0; i < fission_new.size(); ++i)
        fission_new[i] += theta * (fission_new[i] - fission_[i]);
      const double pe = production(fission_new);
      require(pe > 0.0, "keff: extrapolated fission source is non-positive");
      const double inv_pe = 1.0 / pe;
      for (double& f : fission_new) f *= inv_pe;
    }

    fission_.swap(fission_new);
    previous_change = change;
    ++result.outers;
    result.k_history.push_back(k_);
    result.fission_history.push_back(change);
    result.final_k_change = k_change;
    result.final_fission_change = change;
    keff_gauge.set(k_);
    if (observer_ != nullptr)
      observer_->on_keff_outer(outer, k_, k_change, change);

    // Geometric decay with ratio sigma leaves an error of about
    // step * sigma / (1 - sigma) behind the last step; the converging
    // policy stops on that bound, once sigma is a contraction.
    const bool fission_settled =
        converging ? outer > 0 && sigma < 1.0 &&
                         change * std::max(1.0, sigma / (1.0 - sigma)) <=
                             options_.fission_tol
                   : change <= options_.fission_tol;
    if (k_change <= options_.k_tol && fission_settled) {
      result.converged = true;
      break;
    }
  }

  result.k = k_;
  result.total_seconds = total.stop();
  for (const auto& solver : solvers_) {
    result.assemble_solve_seconds += solver->assemble_solve_seconds();
    result.solve_seconds += solver->solve_seconds();
  }
  return result;
}

core::BalanceReport KeffSolver::balance() const {
  core::BalanceReport total;
  const int ng = input_.ng;
  const auto gc = static_cast<std::size_t>(ng);
  total.group_source.assign(gc, 0.0);
  total.group_inflow.assign(gc, 0.0);
  total.group_fission.assign(gc, 0.0);
  total.group_absorption.assign(gc, 0.0);
  total.group_leakage.assign(gc, 0.0);

  for (int s = 0; s < num_groupsets(); ++s) {
    const GroupRange& range = sets_[static_cast<std::size_t>(s)];
    const core::BalanceReport r =
        solvers_[static_cast<std::size_t>(s)]->balance();
    total.source += r.source;
    total.inflow += r.inflow;
    total.absorption += r.absorption;
    total.leakage += r.leakage;
    for (int gl = 0; gl < range.size(); ++gl) {
      const auto g = static_cast<std::size_t>(range.lo + gl);
      const auto glu = static_cast<std::size_t>(gl);
      total.group_source[g] += r.group_source[glu];
      total.group_inflow[g] += r.group_inflow[glu];
      total.group_absorption[g] += r.group_absorption[glu];
      total.group_leakage[g] += r.group_leakage[glu];
    }
  }

  // Fission production enters the ledger scaled by 1/k — that is the
  // source the converged flux actually balances against.
  const core::ElementIntegrals& ints = disc_->integrals();
  const int ne = disc_->num_elements();
  const int n = disc_->num_nodes();
  for (int g = 0; g < ng; ++g) {
    double rate = 0.0;
    for (int e = 0; e < ne; ++e) {
      const Material& mat = material_of(e);
      if (!mat.fissile()) continue;
      const double nsf = mat.nu_sigf[static_cast<std::size_t>(g)];
      if (nsf == 0.0) continue;
      const double* w = ints.node_weights(e);
      const double* ph = phi_.at(e, g);
      double acc = 0.0;
      for (int i = 0; i < n; ++i) acc += w[i] * ph[i];
      rate += nsf * acc;
    }
    total.group_fission[static_cast<std::size_t>(g)] = rate / k_;
    total.fission += rate / k_;
  }
  return total;
}

}  // namespace unsnap::xs
