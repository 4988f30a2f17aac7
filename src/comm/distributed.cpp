#include "comm/distributed.hpp"

#include <algorithm>
#include <cmath>

#include "core/source.hpp"
#include "linalg/blas_like.hpp"
#include "mesh/mesh_builder.hpp"
#include "mesh/mesh_checks.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace unsnap::comm {

namespace {

mesh::HexMesh build_global_mesh(const snap::Input& input) {
  input.validate();
  mesh::MeshOptions options;
  options.dims = input.dims;
  options.extent = {input.extent[0], input.extent[1], input.extent[2]};
  options.twist = input.twist;
  options.shuffle_seed = input.shuffle_seed;
  return mesh::build_brick_mesh(options);
}

/// Disjoint tag spaces per (sweep/epoch, octant): pipelined octant traces
/// are matched to the sweep they belong to, lagged (cycle-broken) traces
/// to the lag epoch they were captured in.
int pipe_tag(int sweep, int oct) {
  return sweep * 2 * angular::kOctants + oct;
}
int lag_tag(int epoch, int oct) {
  return epoch * 2 * angular::kOctants + angular::kOctants + oct;
}

}  // namespace

DistributedSweepSolver::DistributedSweepSolver(const snap::Input& input,
                                               int px, int py, int pz)
    : input_(input),
      global_mesh_(build_global_mesh(input)),
      partition_(mesh::make_kba_partition(global_mesh_, px, py, pz)) {
  // Flat-MPI style per rank: serial sweeps, one OpenMP thread each (ranks
  // are already threads).
  input_.scheme = snap::ConcurrencyScheme::Serial;
  input_.num_threads = 1;
  // A block-Jacobi sweep reads the previous iteration's halos, so it is
  // not the global operator apply GMRES needs — reject gmres. The
  // pipelined exchange is an exact global sweep, so there GMRES composes
  // across ranks.
  if (input_.sweep_exchange == snap::SweepExchange::BlockJacobi)
    require(input_.iteration_scheme == snap::IterationScheme::SourceIteration,
            "block Jacobi sweeps on previous-iteration halos, which is not "
            "the global operator GMRES needs; iteration_scheme = gmres is "
            "not supported here (use sweep_exchange = pipelined)");

  submeshes_.reserve(static_cast<std::size_t>(num_ranks()));
  for (int r = 0; r < num_ranks(); ++r)
    submeshes_.push_back(mesh::extract_submesh(global_mesh_, partition_, r));
  solvers_.resize(static_cast<std::size_t>(num_ranks()));
  build_halo_plans();
  if (input_.sweep_exchange == snap::SweepExchange::Pipelined)
    dag_ = std::make_unique<RankDag>(build_rank_dag(
        global_mesh_, partition_,
        angular::QuadratureSet(input_.quadrature, input_.nang)));
}

const RankDag& DistributedSweepSolver::rank_dag() const {
  require(dag_ != nullptr,
          "rank_dag(): only built for the pipelined sweep exchange");
  return *dag_;
}

void DistributedSweepSolver::build_halo_plans() {
  const fem::HexReferenceElement ref(input_.order);
  plans_.resize(static_cast<std::size_t>(num_ranks()));

  for (int r = 0; r < num_ranks(); ++r) {
    const mesh::SubMesh& sub = submeshes_[r];
    HaloPlan& plan = plans_[r];

    // Sends: my shared faces keyed by my (global element, face).
    for (const auto& rf : sub.remote_faces) {
      plan.send_faces[rf.nbr_rank].emplace_back(rf.local_elem,
                                                rf.local_face);
    }
    for (auto& [dst, faces] : plan.send_faces) {
      std::sort(faces.begin(), faces.end(),
                [&](const auto& a, const auto& b) {
                  return std::make_pair(sub.global_elem[a.first], a.second) <
                         std::make_pair(sub.global_elem[b.first], b.second);
                });
    }

    // Receives: the same faces viewed from the other side, ordered by the
    // *sender's* (global element, face) so both sides stream in lockstep.
    std::map<int, std::vector<const mesh::SubMesh::RemoteFace*>> by_src;
    for (const auto& rf : sub.remote_faces)
      by_src[rf.nbr_rank].push_back(&rf);
    for (auto& [src, faces] : by_src) {
      std::sort(faces.begin(), faces.end(), [](const auto* a, const auto* b) {
        return std::make_pair(a->nbr_global_elem, a->nbr_face) <
               std::make_pair(b->nbr_global_elem, b->nbr_face);
      });
      auto& recvs = plan.recv_faces[src];
      recvs.reserve(faces.size());
      for (const auto* rf : faces) {
        // Node correspondence computed on the global mesh: my face-local
        // node j coincides with the sender's face-local node perm[j].
        const int my_global = sub.global_elem[rf->local_elem];
        RecvFace recv;
        recv.bface_id = rf->boundary_face_id;
        recv.perm = mesh::match_face_nodes_local(
            ref, global_mesh_.geometry(my_global), rf->local_face,
            global_mesh_.geometry(rf->nbr_global_elem), rf->nbr_face);
        recvs.push_back(std::move(recv));
      }
    }
  }
}

void DistributedSweepSolver::send_halo(Network& net, int rank,
                                       const core::TransportSolver& solver,
                                       int dst, int oct_begin, int oct_end,
                                       int tag) const {
  const HaloPlan& plan = plans_[rank];
  const auto it = plan.send_faces.find(dst);
  UNSNAP_ASSERT(it != plan.send_faces.end());
  const auto& faces = it->second;
  const core::Discretization& disc = solver.discretization();
  const core::AngularFlux& psi = solver.angular_flux();
  const int nang = disc.nang();
  const int ng = input_.ng;
  const int nf = disc.nodes_per_face();

  std::vector<double> msg;
  msg.reserve(faces.size() * static_cast<std::size_t>(oct_end - oct_begin) *
              static_cast<std::size_t>(nang) * ng * nf);
  for (const auto& [e, f] : faces) {
    const int* fn = disc.integrals().face_nodes(f);
    for (int oct = oct_begin; oct < oct_end; ++oct)
      for (int a = 0; a < nang; ++a)
        for (int g = 0; g < ng; ++g) {
          const double* ps = psi.at(oct, a, e, g);
          for (int j = 0; j < nf; ++j) msg.push_back(ps[fn[j]]);
        }
  }
  net.send(rank, dst, tag, std::move(msg));
}

void DistributedSweepSolver::unpack_halo(
    int rank, core::TransportSolver& solver, int src, int oct_begin,
    int oct_end, const std::vector<double>& payload) const {
  const HaloPlan& plan = plans_[rank];
  const auto it = plan.recv_faces.find(src);
  UNSNAP_ASSERT(it != plan.recv_faces.end());
  const core::Discretization& disc = solver.discretization();
  core::BoundaryAngularFlux& bc = solver.boundary_values();
  const int nang = disc.nang();
  const int ng = input_.ng;
  const int nf = disc.nodes_per_face();

  std::size_t offset = 0;
  for (const auto& rf : it->second) {
    for (int oct = oct_begin; oct < oct_end; ++oct)
      for (int a = 0; a < nang; ++a)
        for (int g = 0; g < ng; ++g) {
          double* target = bc.at(rf.bface_id, oct, a, g);
          for (int j = 0; j < nf; ++j)
            target[j] = payload[offset + rf.perm[j]];
          offset += static_cast<std::size_t>(nf);
        }
  }
  UNSNAP_ASSERT(offset == payload.size());
}

DistributedSweepResult DistributedSweepSolver::run() {
  const RankDag* const dag = dag_.get();  // pipelined exchange only
  Network net(num_ranks());
  DistributedSweepResult result;
  result.rank_idle_seconds.assign(static_cast<std::size_t>(num_ranks()),
                                  0.0);
  Stopwatch total;
  total.start();

  net.run([&](int rank) {
    auto solver = std::make_unique<core::TransportSolver>(
        submeshes_[rank].mesh, input_);
    solver->boundary_values();  // activate halo storage (zero-initialised)

    int sweep_index = 0;  // exchange tag epoch: one per sweep
    int lag_epoch = 0;    // lagged-edge tag epoch: one per physical anchor
    double idle_seconds = 0.0;

    // Block Jacobi's sweep: a whole local sweep on the previous
    // iteration's halos, then the bulk exchange — all octants to every
    // neighbour, then blocking receives, which the stopwatch charges to
    // this rank's idle time.
    const auto jacobi_sweep = [&] {
      solver->sweep();
      const HaloPlan& plan = plans_[rank];
      for (const auto& [dst, faces] : plan.send_faces)
        send_halo(net, rank, *solver, dst, 0, angular::kOctants,
                  sweep_index);
      OBS_SPAN("exchange.wait", "rank", rank);
      Stopwatch wait;
      wait.start();
      for (const auto& [src, faces] : plan.recv_faces)
        unpack_halo(rank, *solver, src, 0, angular::kOctants,
                    net.recv(rank, src, sweep_index));
      idle_seconds += wait.stop();
      ++sweep_index;
    };

    // Consume the pending upstream octant messages as they arrive: a
    // blocking multi-source wait on the mailbox (recv_any), so a rank
    // ahead of its upstream parks instead of busy-polling — spinning
    // would steal CPU from ranks still sweeping whenever rank threads
    // oversubscribe the cores, biasing the very idle/wall-time numbers
    // this driver reports. The stopwatch charges the waits (plus the
    // O(faces) unpack, noise next to a sweep) to this rank's pipeline
    // idle time.
    const auto drain_upstream = [&](const std::vector<int>& srcs, int oct,
                                    int tag) {
      if (srcs.empty()) return;
      OBS_SPAN("exchange.wait", "rank", rank, "oct", oct);
      std::vector<std::pair<int, int>> pending;
      pending.reserve(srcs.size());
      for (const int u : srcs) pending.emplace_back(u, tag);
      Stopwatch wait;
      wait.start();
      while (!pending.empty()) {
        const auto [key, msg] = net.recv_any(rank, pending);
        unpack_halo(rank, *solver, key.first, oct, oct + 1, msg);
        pending.erase(std::find(pending.begin(), pending.end(), key));
      }
      idle_seconds += wait.stop();
    };

    // One pipelined sweep: per octant, wait for the same-sweep upstream
    // traces, sweep the octant, forward downstream. Physical sweeps also
    // move the lagged (cycle-broken) rank edges' data along, one sweep
    // stale — frozen (Krylov-apply) sweeps leave those couplings untouched
    // so the swept operator stays affine (see accel/inner.hpp).
    const auto pipelined_sweep = [&](bool frozen) {
      solver->sweep_begin(frozen);
      for (int oct = 0; oct < angular::kOctants; ++oct) {
        const RankDag::OctantGraph& g =
            dag->octants[static_cast<std::size_t>(oct)];
        if (!frozen && lag_epoch > 0)
          drain_upstream(g.lagged_upstream[static_cast<std::size_t>(rank)],
                         oct, lag_tag(lag_epoch - 1, oct));
        drain_upstream(g.upstream[static_cast<std::size_t>(rank)], oct,
                       pipe_tag(sweep_index, oct));
        solver->sweep_octant(oct);
        {
          OBS_SPAN("exchange.send", "rank", rank, "oct", oct);
          for (const int d : g.downstream[static_cast<std::size_t>(rank)])
            send_halo(net, rank, *solver, d, oct, oct + 1,
                      pipe_tag(sweep_index, oct));
          if (!frozen)
            for (const int d :
                 g.lagged_downstream[static_cast<std::size_t>(rank)])
              send_halo(net, rank, *solver, d, oct, oct + 1,
                        lag_tag(lag_epoch, oct));
        }
      }
      solver->sweep_end(frozen);
      ++sweep_index;
      if (!frozen) ++lag_epoch;
    };

    // Re-anchor the cross-rank lagged couplings on the current physical
    // psi (the gmres twin of the physical sweep's lagged-edge traffic):
    // all sends are buffered, so send-all-then-receive-all cannot block.
    const auto refresh_lagged_edges = [&] {
      for (int oct = 0; oct < angular::kOctants; ++oct) {
        const RankDag::OctantGraph& g =
            dag->octants[static_cast<std::size_t>(oct)];
        for (const int d :
             g.lagged_downstream[static_cast<std::size_t>(rank)])
          send_halo(net, rank, *solver, d, oct, oct + 1,
                    lag_tag(lag_epoch, oct));
      }
      for (int oct = 0; oct < angular::kOctants; ++oct) {
        const RankDag::OctantGraph& g =
            dag->octants[static_cast<std::size_t>(oct)];
        drain_upstream(g.lagged_upstream[static_cast<std::size_t>(rank)],
                       oct, lag_tag(lag_epoch, oct));
      }
      ++lag_epoch;
    };

    // Only the sweeps and the reductions are distributed: every reduction
    // returns the identical value on every rank, so the ranks take the
    // same branches of the one iteration loop in lockstep.
    core::IterationHooks hooks;
    if (dag != nullptr) {
      hooks.sweep = [&] { pipelined_sweep(false); };
      hooks.sweep_frozen = [&] { pipelined_sweep(true); };
      hooks.refresh = [&] {
        solver->refresh_lagged_couplings();
        refresh_lagged_edges();
      };
    } else {
      hooks.sweep = jacobi_sweep;
    }
    hooks.dot = [&](std::span<const double> a, std::span<const double> b) {
      return net.allreduce_sum(linalg::dot(a, b));
    };
    hooks.norm2 = [&](std::span<const double> v) {
      return std::sqrt(net.allreduce_sum(linalg::dot(v, v)));
    };
    hooks.reduce_max = [&](double v) { return net.allreduce_max(v); };

    // Rank 0's loop sees the globally-reduced changes and residuals, so
    // its events are the global iteration trace and its result the run's.
    if (rank == 0) solver->set_observer(observer_);
    const core::IterationResult it = solver->run(&hooks);
    if (rank == 0) static_cast<core::IterationResult&>(result) = it;
    result.rank_idle_seconds[static_cast<std::size_t>(rank)] = idle_seconds;
    solvers_[rank] = std::move(solver);
  });

  result.total_seconds = total.stop();
  // Ranks sweep at once: the run's sweep time is the slowest rank's.
  result.assemble_solve_seconds = 0.0;
  result.solve_seconds = 0.0;
  for (int r = 0; r < num_ranks(); ++r) {
    const core::TransportSolver& rs = *solvers_[r];
    const double idle = result.rank_idle_seconds[static_cast<std::size_t>(r)];
    const double busy = rs.assemble_solve_seconds();
    result.rank_sweep_seconds.push_back(busy);
    result.assemble_solve_seconds =
        std::max(result.assemble_solve_seconds, busy);
    result.solve_seconds = std::max(result.solve_seconds, rs.solve_seconds());
    if (idle + busy > 0.0)
      result.max_idle_fraction =
          std::max(result.max_idle_fraction, idle / (idle + busy));
  }
  if (dag != nullptr) {
    result.pipeline_stages = dag->max_stages();
    result.lagged_rank_edges = dag->total_lagged_edges();
    result.modelled_pipeline_efficiency = dag->modelled_efficiency();
  }
  return result;
}

std::vector<double> DistributedSweepSolver::gather_scalar_flux() const {
  const int ng = input_.ng;
  const fem::HexReferenceElement ref(input_.order);
  const int n = ref.num_nodes();
  std::vector<double> global(static_cast<std::size_t>(
                                 global_mesh_.num_elements()) *
                                 ng * n,
                             0.0);
  for (int r = 0; r < num_ranks(); ++r) {
    UNSNAP_ASSERT(solvers_[r] != nullptr);
    const mesh::SubMesh& sub = submeshes_[r];
    const core::NodalField& phi = solvers_[r]->scalar_flux();
    for (std::size_t l = 0; l < sub.global_elem.size(); ++l) {
      const auto ge = static_cast<std::size_t>(sub.global_elem[l]);
      for (int g = 0; g < ng; ++g) {
        const double* src = phi.at(static_cast<int>(l), g);
        double* dst = global.data() + (ge * ng + g) * n;
        for (int i = 0; i < n; ++i) dst[i] = src[i];
      }
    }
  }
  return global;
}

}  // namespace unsnap::comm
