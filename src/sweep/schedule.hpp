#pragma once

#include <span>
#include <utility>
#include <vector>

#include "angular/quadrature.hpp"
#include "sweep/dependency.hpp"
#include "sweep/scc.hpp"

namespace unsnap::sweep {

/// Bucketed wavefront schedule for one ordinate (paper §III-A-2): bucket b
/// holds every element whose "tlevel" (longest upwind chain from a
/// boundary-fed element) equals b. Elements within a bucket have no mutual
/// dependencies and may be solved concurrently; buckets execute in order.
class SweepSchedule {
 public:
  [[nodiscard]] int num_buckets() const {
    return static_cast<int>(bucket_start_.size()) - 1;
  }
  [[nodiscard]] std::span<const int> bucket(int b) const {
    return {order_.data() + bucket_start_[b],
            static_cast<std::size_t>(bucket_start_[b + 1] - bucket_start_[b])};
  }
  [[nodiscard]] std::span<const int> order() const { return order_; }
  [[nodiscard]] int num_elements() const {
    return static_cast<int>(order_.size());
  }
  /// Faces whose upwind dependency was broken to resolve a cycle; the
  /// assembly kernel reads previous-iterate flux through them (empty unless
  /// cycles were present and a lagging strategy was enabled).
  [[nodiscard]] const std::vector<std::pair<int, int>>& lagged_faces() const {
    return lagged_faces_;
  }
  [[nodiscard]] bool face_is_lagged(int e, int f) const {
    return !lagged_mask_.empty() && ((lagged_mask_[e] >> f) & 1u);
  }
  /// Index of lagged face (e, f) in lagged_faces() — the storage slot of
  /// its previous-iterate trace in core::LagSnapshot. Only valid when
  /// face_is_lagged(e, f).
  [[nodiscard]] int lag_slot(int e, int f) const;
  /// Faces excluded from the dependency graph because both sides classify
  /// them as incoming (grazing interfaces; the two sides' area normals
  /// are only opposite to rounding). Their flow is ~zero, no relaxation
  /// ever satisfies them, and the kernel treats them as vacuum so no
  /// unsynchronized same-bucket psi read can occur through them. Empty on
  /// almost every mesh.
  [[nodiscard]] bool face_is_phantom(int e, int f) const {
    return !phantom_mask_.empty() && ((phantom_mask_[e] >> f) & 1u);
  }
  /// Largest bucket population — the available element-level parallelism.
  [[nodiscard]] int max_bucket_size() const;

 private:
  friend SweepSchedule build_schedule(const mesh::HexMesh&,
                                      const AngleDependency&, CycleStrategy);
  std::vector<int> order_;          // concatenated buckets
  std::vector<int> bucket_start_;   // size num_buckets + 1
  std::vector<std::pair<int, int>> lagged_faces_;
  std::vector<std::uint8_t> lagged_mask_;  // per element, empty if no cycles
  /// (element * kFacesPerHex + face, slot) sorted by key, for lag_slot().
  std::vector<std::pair<int, int>> lag_slots_;
  std::vector<std::uint8_t> phantom_mask_;  // per element, usually empty
};

/// Kahn-counter bucket construction as described in the paper: elements
/// whose interior incoming faces are all satisfied enter the first bucket;
/// solving an element increments the counters of its downwind neighbours,
/// which join the next bucket when fully satisfied.
///
/// Cyclic dependencies (possible on strongly twisted meshes) are resolved
/// according to `strategy`: Abort throws NumericalError, LagScc runs Tarjan
/// SCC condensation up front and breaks each cyclic component at its
/// smallest-|n.omega| face (see scc.hpp), after which the construction
/// provably never stalls.
[[nodiscard]] SweepSchedule build_schedule(
    const mesh::HexMesh& mesh, const AngleDependency& dep,
    CycleStrategy strategy = CycleStrategy::Abort);

/// Per-quadrature schedule container with signature deduplication: angles
/// whose dependency structure is identical (always true for all angles of
/// an octant on an untwisted mesh, often true for small twists) share one
/// schedule, mirroring the structured-mesh observation in the paper.
class ScheduleSet {
 public:
  ScheduleSet(const mesh::HexMesh& mesh,
              const angular::QuadratureSet& quadrature,
              CycleStrategy strategy = CycleStrategy::Abort);

  [[nodiscard]] const SweepSchedule& get(int octant, int angle) const {
    return schedules_[index_[static_cast<std::size_t>(octant) * per_octant_ +
                             angle]];
  }
  [[nodiscard]] int unique_count() const {
    return static_cast<int>(schedules_.size());
  }
  [[nodiscard]] const SweepSchedule& unique_schedule(int i) const {
    return schedules_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] int per_octant() const { return per_octant_; }
  [[nodiscard]] CycleStrategy strategy() const { return strategy_; }

  /// The angles of `octant` grouped by shared schedule ("same-signature
  /// batches"), each batch ascending, batches ordered by first angle. The
  /// batched sweep executes one batch's bucket list once for all its
  /// angles instead of re-walking it per angle.
  [[nodiscard]] const std::vector<std::vector<int>>& batches(
      int octant) const {
    return batches_[static_cast<std::size_t>(octant)];
  }

 private:
  int per_octant_;
  CycleStrategy strategy_;
  std::vector<SweepSchedule> schedules_;
  std::vector<int> index_;  // (octant, angle) -> schedule
  std::vector<std::vector<std::vector<int>>> batches_;  // per octant
};

/// Bucket-occupancy statistics used by the schedule benchmarks.
struct ScheduleStats {
  int buckets = 0;
  int min_bucket = 0;
  int max_bucket = 0;
  double mean_bucket = 0.0;
  int lagged = 0;  // cycle-broken faces
};
[[nodiscard]] ScheduleStats schedule_stats(const SweepSchedule& schedule);

/// Aggregate occupancy/parallelism profile of a whole ScheduleSet — the
/// numbers api::report prints so every scenario can judge how much
/// element-level parallelism its sweeps expose.
struct ScheduleSetStats {
  int unique = 0;         // deduplicated schedules
  int total_lagged = 0;   // cycle-broken faces summed over unique schedules
  int min_buckets = 0;    // fewest wavefronts of any schedule
  int max_buckets = 0;    // most wavefronts of any schedule
  double mean_bucket = 0.0;  // mean bucket population over unique schedules
  int max_bucket = 0;        // largest single bucket anywhere
  /// Modelled parallel efficiency of threading bucket elements over
  /// `threads` threads: useful work / (threads x sum of ceil(bucket/T))
  /// averaged over the unique schedules. 1.0 = every thread busy in every
  /// bucket; small buckets and ragged tails pull it down.
  double parallel_efficiency = 1.0;
};
[[nodiscard]] ScheduleSetStats schedule_set_stats(const ScheduleSet& set,
                                                  int threads);

}  // namespace unsnap::sweep
