#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "comm/network.hpp"
#include "comm/rank_dag.hpp"
#include "core/transport_solver.hpp"
#include "mesh/partition.hpp"

namespace unsnap::comm {

/// Outcome of a distributed sweep solve (either exchange discipline): the
/// global iteration result (rank 0's, whose reductions every rank shares)
/// plus the per-rank and pipeline figures. total_seconds is the wall time
/// of the whole rank team; assemble_solve_seconds and solve_seconds are
/// the slowest rank's, since ranks sweep at once.
struct DistributedSweepResult : core::IterationResult {
  /// Per-rank wall time inside the sweep kernel.
  std::vector<double> rank_sweep_seconds;
  /// Per-rank wall time spent blocked at the halo boundary: the bulk
  /// exchange's receives (jacobi) or the waits for same-iteration
  /// upstream octant traces, the pipeline fill/drain cost (pipelined).
  std::vector<double> rank_idle_seconds;
  /// Worst rank's idle / (idle + sweep) over the whole solve.
  double max_idle_fraction = 0.0;

  // --- pipelined exchange only ----------------------------------------
  int pipeline_stages = 1;      // deepest per-octant rank pipeline
  int lagged_rank_edges = 0;    // cycle-broken rank edges (twisted decks)
  double modelled_pipeline_efficiency = 1.0;  // RankDag::modelled_efficiency
};

/// Distributed-memory sweep driver over the simulated-MPI Network: the
/// global brick is KBA-partitioned into px * py * pz rank blocks (paper
/// §III; pz = 1 recovers the classic column layout),
/// each rank runs a self-contained TransportSolver on its submesh in
/// flat-MPI style (serial sweeps, matching the paper's Table II
/// configuration), and halo traffic follows input.sweep_exchange:
///
///  - SweepExchange::BlockJacobi — the paper's global schedule (§III-A-1):
///    every rank sweeps all octants immediately on previous-iteration
///    boundary fluxes, then halo-exchanges. Full concurrency from sweep
///    one, but convergence degrades with the rank count (the Garrett
///    observation this mini-app exists to quantify).
///
///  - SweepExchange::Pipelined — a true pipelined sweep (Vermaak et al.):
///    each octant is staged through the rank-level dependency DAG
///    (comm::RankDag), ranks consuming same-iteration upstream traces
///    before sweeping the octant and forwarding downstream after. The
///    distributed sweep is then an exact global transport sweep, so
///    iteration counts match the single domain for any px * py * pz and the
///    GMRES inner scheme (src/accel/) composes unchanged across ranks —
///    at the price of pipeline fill/drain idling, which the result's
///    per-rank idle fractions quantify. Rank-granularity cycles on
///    twisted decks are broken by lagging the weakest rank edges
///    (RankDag), which fall back to block-Jacobi staleness.
///
/// Either way each rank runs the single-domain TransportSolver::run()
/// loop; only its sweeps and its reductions (core::IterationHooks) go
/// through the network.
class DistributedSweepSolver {
 public:
  DistributedSweepSolver(const snap::Input& input, int px, int py,
                         int pz = 1);

  DistributedSweepResult run();

  /// Subscribe an observer to the global iteration events. Events fire on
  /// rank 0's worker thread with globally-reduced values (the numbers the
  /// result records); per-rank local changes are not observable.
  void set_observer(core::IterationObserver* observer) {
    observer_ = observer;
  }

  [[nodiscard]] int num_ranks() const { return partition_.num_ranks(); }
  [[nodiscard]] snap::SweepExchange exchange() const {
    return input_.sweep_exchange;
  }
  [[nodiscard]] const mesh::HexMesh& global_mesh() const {
    return global_mesh_;
  }
  [[nodiscard]] const mesh::Partition& partition() const {
    return partition_;
  }
  [[nodiscard]] const mesh::SubMesh& submesh(int rank) const {
    return submeshes_[rank];
  }
  /// The rank-level dependency DAG (pipelined exchange only).
  [[nodiscard]] const RankDag& rank_dag() const;
  /// Valid after run().
  [[nodiscard]] const core::TransportSolver& rank_solver(int rank) const {
    return *solvers_[rank];
  }

  /// Scalar flux reassembled on the global mesh, indexed
  /// [global element][group][node] row-major (layout-independent), for
  /// comparison against a single-domain solve.
  [[nodiscard]] std::vector<double> gather_scalar_flux() const;

 private:
  struct RecvFace {
    int bface_id;            // local boundary-face index (halo target)
    std::vector<int> perm;   // my face-local j -> sender's face-local index
  };
  struct HaloPlan {
    // Shared-face lists in the canonical order both sides agree on:
    // ascending (sender global element, sender face).
    std::map<int, std::vector<std::pair<int, int>>> send_faces;  // dst -> (local elem, face)
    std::map<int, std::vector<RecvFace>> recv_faces;             // src -> faces
  };

  snap::Input input_;
  mesh::HexMesh global_mesh_;
  mesh::Partition partition_;
  std::vector<mesh::SubMesh> submeshes_;
  std::vector<HaloPlan> plans_;
  std::unique_ptr<RankDag> dag_;  // pipelined exchange only
  std::vector<std::unique_ptr<core::TransportSolver>> solvers_;
  core::IterationObserver* observer_ = nullptr;

  void build_halo_plans();

  // --- halo packing (shared by both exchanges) -------------------------
  /// Pack the octant range [oct_begin, oct_end) of rank's outgoing traces
  /// to dst and send under `tag`.
  void send_halo(Network& net, int rank, const core::TransportSolver& solver,
                 int dst, int oct_begin, int oct_end, int tag) const;
  /// Unpack a payload from src into the halo slots of boundary_values().
  void unpack_halo(int rank, core::TransportSolver& solver, int src,
                   int oct_begin, int oct_end,
                   const std::vector<double>& payload) const;
};

}  // namespace unsnap::comm
