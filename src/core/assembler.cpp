#include "core/assembler.hpp"

#include "core/preassembly.hpp"

namespace unsnap::core {

LagSnapshot::LagSnapshot(const sweep::ScheduleSet& schedules, int ng,
                         int nf)
    : nang_(static_cast<std::size_t>(schedules.per_octant())),
      ng_(static_cast<std::size_t>(ng)),
      nf_(static_cast<std::size_t>(nf)) {
  base_.reserve(static_cast<std::size_t>(angular::kOctants) * nang_);
  std::size_t total = 0;
  for (int oct = 0; oct < angular::kOctants; ++oct)
    for (int a = 0; a < schedules.per_octant(); ++a) {
      base_.push_back(total);
      total += schedules.get(oct, a).lagged_faces().size() * ng_ * nf_;
    }
  data_.assign(total, 0.0);
}

void ElementCoupling::resize(int n, int face_nodes) {
  nf = face_nodes;
  stream.assign(static_cast<std::size_t>(n) * n, 0.0);
  faces.assign(static_cast<std::size_t>(fem::kFacesPerHex) * nf * nf, 0.0);
}

void AssemblyContext::resize(int n, int nf) {
  a = linalg::Matrix(n, n);
  rhs.assign(static_cast<std::size_t>(n), 0.0);
  upwind.assign(static_cast<std::size_t>(nf), 0.0);
  qtmp.assign(static_cast<std::size_t>(n), 0.0);
  coupling.resize(n, nf);
  workspace.reserve(n);
  lanes = linalg::LaneBlock(fixed_extent(n, nf) ? n : 0);
}

template <int N, int NF>
void Assembler::couple(ElementCoupling& c, int e, const Vec3& omega,
                       bool matrix) const {
  const ElementIntegrals& ints = disc_->integrals();
  const int n = linalg::extent<N>(ints.num_nodes());
  const int nf = linalg::extent<NF>(ints.nodes_per_face());
  const double wx = omega[0], wy = omega[1], wz = omega[2];

  if (matrix) {
    const double* gx = ints.grad(e, 0);
    const double* gy = ints.grad(e, 1);
    const double* gz = ints.grad(e, 2);
    double* k = c.stream.data();
    const int nn = n * n;
#pragma omp simd
    for (int idx = 0; idx < nn; ++idx)
      k[idx] = wx * gx[idx] + wy * gy[idx] + wz * gz[idx];
  }

  // The paper's data-dependent branch: outflow faces contribute Omega . F
  // to the matrix, inflow faces to the right-hand side.
  for (int f = 0; f < fem::kFacesPerHex; ++f) {
    const Vec3 nrm = ints.face_normal(e, f);
    c.outflow[f] = !(nrm[0] * wx + nrm[1] * wy + nrm[2] * wz < 0.0);
    if (c.outflow[f] && !matrix) continue;
    const double* fx = ints.face(e, f, 0);
    const double* fy = ints.face(e, f, 1);
    const double* fz = ints.face(e, f, 2);
    double* t = c.faces.data() + static_cast<std::size_t>(f) * nf * nf;
    const int ff = nf * nf;
#pragma omp simd
    for (int idx = 0; idx < ff; ++idx)
      t[idx] = wx * fx[idx] + wy * fy[idx] + wz * fz[idx];
  }
}

template <int N, int NF, int S>
void Assembler::assemble_matrix(double* a, const ElementCoupling& c, int e,
                                std::span<const double> sigt) const {
  const ElementIntegrals& ints = disc_->integrals();
  const int n = linalg::extent<N>(ints.num_nodes());
  const int nf = linalg::extent<NF>(ints.nodes_per_face());
  // The systems side by side: one at S = 1, a run of lanes otherwise.
  const int w = S == 1 ? 1 : static_cast<int>(sigt.size());
  UNSNAP_ASSERT(static_cast<int>(sigt.size()) == w && w <= S);

  const double* m = ints.mass(e);
  const double* k = c.stream.data();
  const int nn = n * n;
  for (int l = 0; l < w; ++l) {
    double* al = a + l;
    const double st = sigt[static_cast<std::size_t>(l)];
#pragma omp simd
    for (int idx = 0; idx < nn; ++idx) al[idx * S] = st * m[idx] - k[idx];

    // Outflow faces add their Omega . F_f, face after face.
    for (int f = 0; f < fem::kFacesPerHex; ++f) {
      if (!c.outflow[f]) continue;
      const double* t = c.face(f);
      const int* fn = ints.face_nodes(f);
      for (int i = 0; i < nf; ++i) {
        double* arow = al + static_cast<std::size_t>(fn[i]) * n * S;
        const double* ti = t + static_cast<std::size_t>(i) * nf;
        for (int j = 0; j < nf; ++j) arow[fn[j] * S] += ti[j];
      }
    }
  }
}

template <int N, int NF>
void Assembler::assemble_rhs(AssemblyContext& ctx, const ElementCoupling& c,
                             const SweepState& state, int oct, int a, int e,
                             int g) const {
  const ElementIntegrals& ints = disc_->integrals();
  const mesh::HexMesh& mesh = disc_->mesh();
  const int n = linalg::extent<N>(ints.num_nodes());
  const int nf = linalg::extent<NF>(ints.nodes_per_face());

  // b = M * (q_in + q_ang + anisotropic moment expansion).
  const double* q = state.qin->at(e, g);
  if (state.qang != nullptr || state.qmom_hi != nullptr) {
    double* qt = ctx.qtmp.data();
#pragma omp simd
    for (int j = 0; j < n; ++j) qt[j] = q[j];
    if (state.qang != nullptr) {
      const double* qa = state.qang->at(oct, a, e, g);
#pragma omp simd
      for (int j = 0; j < n; ++j) qt[j] += qa[j];
    }
    if (state.qmom_hi != nullptr) {
      for (int m = 1; m < state.moment_count; ++m) {
        const double cm = state.ylm_src[m];
        const double* qm = (*state.qmom_hi)[m - 1].at(e, g);
#pragma omp simd
        for (int j = 0; j < n; ++j) qt[j] += cm * qm[j];
      }
    }
    q = qt;
  }
  const double* m = ints.mass(e);
  double* rhs = ctx.rhs.data();
  for (int i = 0; i < n; ++i) {
    const double* mrow = m + static_cast<std::size_t>(i) * n;
    double acc = 0.0;
#pragma omp simd reduction(+ : acc)
    for (int j = 0; j < n; ++j) acc += mrow[j] * q[j];
    rhs[i] = acc;
  }

  // Inflow faces: subtract Omega . F times the upwind trace. The upwind
  // values come from the neighbour's current flux (already updated this
  // sweep for faces the schedule respects, previous-iterate for lagged
  // cycle-broken faces) or from prescribed boundary data; vacuum
  // boundaries contribute nothing.
  for (int f = 0; f < fem::kFacesPerHex; ++f) {
    if (c.outflow[f]) continue;

    const double* vals = nullptr;
    const int nbr = mesh.neighbor(e, f);
    if (nbr != mesh::kNoNeighbor) {
      // Grazing faces incoming on both sides are outside the dependency
      // graph (~zero flow): read vacuum rather than racing on a
      // neighbour that may share this bucket.
      if (state.schedule != nullptr && state.schedule->face_is_phantom(e, f))
        continue;
      if (state.lag != nullptr && state.schedule != nullptr &&
          state.schedule->face_is_lagged(e, f)) {
        // Lagged (cycle-broken) faces read the pre-gathered
        // previous-iterate trace captured at sweep start.
        vals = state.lag->row(oct, a, state.schedule->lag_slot(e, f), g);
      } else {
        // Every other interior face reads the neighbour's flux as updated
        // this sweep.
        const double* pn = state.psi->at(oct, a, nbr, g);
        const int* perm = ints.neighbor_perm(e, f);
        double* uv = ctx.upwind.data();
        for (int j = 0; j < nf; ++j) uv[j] = pn[perm[j]];
        vals = uv;
      }
    } else if (state.bc != nullptr && state.bc->active()) {
      vals = state.bc->at(mesh.boundary_face_id(e, f), oct, a, g);
    } else {
      continue;  // vacuum
    }

    const double* t = c.face(f);
    const int* fn = ints.face_nodes(f);
    for (int i = 0; i < nf; ++i) {
      const double* ti = t + static_cast<std::size_t>(i) * nf;
      double acc = 0.0;
#pragma omp simd reduction(+ : acc)
      for (int j = 0; j < nf; ++j) acc += ti[j] * vals[j];
      rhs[fn[i]] -= acc;
    }
  }
}

template <int N, int NF>
void Assembler::process(AssemblyContext& ctx, const SweepState& state,
                        int oct, int a, int e, int g, const Vec3& omega,
                        double weight, linalg::SolverKind solver,
                        bool atomic_phi, bool time_solve) const {
  const int n = linalg::extent<N>(disc_->num_nodes());
  const bool assemble = state.pre == nullptr;
  couple<N, NF>(ctx.coupling, e, omega, assemble);
  assemble_rhs<N, NF>(ctx, ctx.coupling, state, oct, a, e, g);

  const double* psi;
  if (!assemble) {
    psi = state.pre->apply<N>(ctx, oct, a, e, g);
  } else {
    double* rhs = ctx.rhs.data();
    const double st = problem_->sigt_eg(e, g);
    assemble_matrix<N, NF>(ctx.a.data(), ctx.coupling, e, {&st, 1});
    if (time_solve) ctx.solve_watch.start();
    linalg::solve_in_place<N>(solver, ctx.a.view(),
                              {rhs, static_cast<std::size_t>(n)},
                              ctx.workspace);
    if (time_solve) ctx.solve_seconds += ctx.solve_watch.peek();
    psi = rhs;
  }
  store<N>(state, oct, a, e, g, weight, psi, atomic_phi);
}

template <int N, int NF>
void Assembler::flush(AssemblyContext& ctx,
                      const KernelOptions& options) const {
  if constexpr (N != linalg::kDynamic) {
    constexpr int kLanes = linalg::kLanes;
    const int lanes = ctx.queued;
    if (lanes == 0) return;
    ctx.queued = 0;  // empty even if the solve throws
    double* a = ctx.lanes.a();
    double* b = ctx.lanes.b();
    double* rhs = ctx.rhs.data();
    const bool solve = ctx.queue[0].state->pre == nullptr;
    // Each run of consecutive lanes on one (angle, element) -- under the
    // default orders, an element's groups -- shares one coupling.
    for (int l0 = 0; l0 < lanes;) {
      const SweepUnit& u = ctx.queue[l0];
      int l1 = l0 + 1;
      while (l1 < lanes && ctx.queue[l1].e == u.e &&
             ctx.queue[l1].a == u.a && ctx.queue[l1].oct == u.oct)
        ++l1;
      couple<N, NF>(ctx.coupling, u.e, u.omega, /*matrix=*/solve);
      if (solve) {
        double sigt[kLanes];
        for (int l = l0; l < l1; ++l)
          sigt[l - l0] = problem_->sigt_eg(u.e, ctx.queue[l].g);
        assemble_matrix<N, NF, kLanes>(
            a + l0, ctx.coupling, u.e,
            {sigt, static_cast<std::size_t>(l1 - l0)});
      }
      for (int l = l0; l < l1; ++l) {
        const SweepUnit& v = ctx.queue[l];
        assemble_rhs<N, NF>(ctx, ctx.coupling, *v.state, v.oct, v.a, v.e,
                            v.g);
        if (solve)
          for (int i = 0; i < N; ++i) b[i * kLanes + l] = rhs[i];
        else
          store<N>(*v.state, v.oct, v.a, v.e, v.g, v.weight,
                   v.state->pre->apply<N>(ctx, v.oct, v.a, v.e, v.g),
                   options.atomic_phi);
      }
      l0 = l1;
    }
    if (!solve) return;
    if (options.time_solve) ctx.solve_watch.start();
    linalg::gauss_solve_lanes<N>(
        ctx.lanes, lanes,
        options.solver == linalg::SolverKind::GaussianElimination);
    if (options.time_solve) ctx.solve_seconds += ctx.solve_watch.peek();
    const double* x = ctx.lanes.x();
    for (int l = 0; l < lanes; ++l) {
      const SweepUnit& u = ctx.queue[l];
      for (int i = 0; i < N; ++i) rhs[i] = x[i * kLanes + l];
      store<N>(*u.state, u.oct, u.a, u.e, u.g, u.weight, rhs,
               options.atomic_phi);
    }
  }
}

template <int N>
void Assembler::store(const SweepState& state, int oct, int a, int e, int g,
                      double weight, const double* psi,
                      bool atomic_phi) const {
  const int n = linalg::extent<N>(disc_->num_nodes());
  double* out = state.psi->at(oct, a, e, g);
#pragma omp simd
  for (int i = 0; i < n; ++i) out[i] = psi[i];

  double* ph = state.phi->at(e, g);
  if (atomic_phi) {
    for (int i = 0; i < n; ++i) {
#pragma omp atomic
      ph[i] += weight * psi[i];
    }
    if (state.phi_hi != nullptr) {
      for (int m = 1; m < state.moment_count; ++m) {
        const double c = weight * state.ylm_acc[m];
        double* pm = (*state.phi_hi)[m - 1].at(e, g);
        for (int i = 0; i < n; ++i) {
#pragma omp atomic
          pm[i] += c * psi[i];
        }
      }
    }
  } else {
#pragma omp simd
    for (int i = 0; i < n; ++i) ph[i] += weight * psi[i];
    if (state.phi_hi != nullptr) {
      for (int m = 1; m < state.moment_count; ++m) {
        const double c = weight * state.ylm_acc[m];
        double* pm = (*state.phi_hi)[m - 1].at(e, g);
#pragma omp simd
        for (int i = 0; i < n; ++i) pm[i] += c * psi[i];
      }
    }
  }
}

template void Assembler::couple<8, 4>(ElementCoupling&, int, const Vec3&,
                                      bool) const;
template void Assembler::couple<linalg::kDynamic, linalg::kDynamic>(
    ElementCoupling&, int, const Vec3&, bool) const;
template void Assembler::assemble_matrix<8, 4>(
    double*, const ElementCoupling&, int, std::span<const double>) const;
template void Assembler::assemble_matrix<8, 4, linalg::kLanes>(
    double*, const ElementCoupling&, int, std::span<const double>) const;
template void Assembler::assemble_matrix<linalg::kDynamic, linalg::kDynamic>(
    double*, const ElementCoupling&, int, std::span<const double>) const;
template void Assembler::assemble_rhs<8, 4>(AssemblyContext&,
                                            const ElementCoupling&,
                                            const SweepState&, int, int, int,
                                            int) const;
template void Assembler::assemble_rhs<linalg::kDynamic, linalg::kDynamic>(
    AssemblyContext&, const ElementCoupling&, const SweepState&, int, int,
    int, int) const;
template void Assembler::process<8, 4>(AssemblyContext&, const SweepState&,
                                       int, int, int, int, const Vec3&,
                                       double, linalg::SolverKind, bool,
                                       bool) const;
template void Assembler::process<linalg::kDynamic, linalg::kDynamic>(
    AssemblyContext&, const SweepState&, int, int, int, int, const Vec3&,
    double, linalg::SolverKind, bool, bool) const;

template void Assembler::flush<8, 4>(AssemblyContext&,
                                     const KernelOptions&) const;
template void Assembler::flush<linalg::kDynamic, linalg::kDynamic>(
    AssemblyContext&, const KernelOptions&) const;

}  // namespace unsnap::core
