#include "sweep/schedule.hpp"

#include <algorithm>
#include <map>

#include "util/assert.hpp"

namespace unsnap::sweep {

int SweepSchedule::lag_slot(int e, int f) const {
  const int key = e * fem::kFacesPerHex + f;
  const auto it = std::lower_bound(
      lag_slots_.begin(), lag_slots_.end(), key,
      [](const std::pair<int, int>& entry, int k) { return entry.first < k; });
  UNSNAP_ASSERT(it != lag_slots_.end() && it->first == key);
  return it->second;
}

int SweepSchedule::max_bucket_size() const {
  int best = 0;
  for (int b = 0; b < num_buckets(); ++b)
    best = std::max(best, static_cast<int>(bucket(b).size()));
  return best;
}

SweepSchedule build_schedule(const mesh::HexMesh& mesh,
                             const AngleDependency& dep,
                             CycleStrategy strategy) {
  const int ne = mesh.num_elements();
  SweepSchedule schedule;
  schedule.order_.reserve(static_cast<std::size_t>(ne));
  schedule.bucket_start_.push_back(0);

  std::vector<std::uint8_t> unsatisfied(dep.interior_incoming_count);
  std::vector<char> scheduled(static_cast<std::size_t>(ne), 0);
  int remaining = ne;

  // Grazing faces incoming on both sides carry no dependency (they are
  // excluded from the counters); record them so the kernel reads vacuum
  // instead of racing on the neighbour's live flux.
  for (int e = 0; e < ne; ++e)
    for (int f = 0; f < fem::kFacesPerHex; ++f) {
      if (!dep.is_incoming(e, f)) continue;
      if (mesh.neighbor(e, f) == mesh::kNoNeighbor) continue;
      if (is_dependency_edge(mesh, dep, e, f)) continue;
      if (schedule.phantom_mask_.empty())
        schedule.phantom_mask_.assign(static_cast<std::size_t>(ne), 0);
      schedule.phantom_mask_[e] |= static_cast<std::uint8_t>(1u << f);
    }

  if (strategy == CycleStrategy::LagScc) {
    // Condense the dependency graph up front: after break_cycles_scc the
    // graph is acyclic, so the Kahn construction below can never stall.
    schedule.lagged_faces_ =
        break_cycles_scc(mesh, dep, schedule.lagged_mask_);
    if (schedule.lagged_faces_.empty()) schedule.lagged_mask_.clear();
    for (const auto& [e, f] : schedule.lagged_faces_) --unsatisfied[e];
  }

  // Seed bucket: everything fed entirely by boundary/remote/lagged faces.
  std::vector<int> current;
  for (int e = 0; e < ne; ++e)
    if (unsatisfied[e] == 0) current.push_back(e);

  std::vector<int> next;
  while (remaining > 0) {
    if (current.empty()) {
      // Cycle: no element is fully satisfied. lag-scc broke every cycle
      // up front, so only abort can get here.
      UNSNAP_ASSERT(strategy == CycleStrategy::Abort);
      throw NumericalError(
          "sweep schedule: cyclic dependency detected (twist too large?); "
          "choose cycles = lag-scc to lag the offending faces");
    }

    // Emit the bucket and relax downwind counters.
    next.clear();
    for (const int e : current) {
      scheduled[e] = 1;
      schedule.order_.push_back(e);
    }
    remaining -= static_cast<int>(current.size());
    schedule.bucket_start_.push_back(
        static_cast<int>(schedule.order_.size()));
    for (const int e : current) {
      for (int f = 0; f < fem::kFacesPerHex; ++f) {
        if (dep.is_incoming(e, f)) continue;  // outgoing faces only
        const int nbr = mesh.neighbor(e, f);
        if (nbr == mesh::kNoNeighbor || scheduled[nbr]) continue;
        // My outgoing face feeds the neighbour only through a genuine
        // dependency edge as seen from the neighbour's side.
        const int nbr_face = mesh.neighbor_face(e, f);
        if (!is_dependency_edge(mesh, dep, nbr, nbr_face)) continue;
        if (schedule.face_is_lagged(nbr, nbr_face)) continue;
        UNSNAP_ASSERT(unsatisfied[nbr] > 0);
        if (--unsatisfied[nbr] == 0) next.push_back(nbr);
      }
    }
    current.swap(next);
  }

  // Freeze the lagged-face -> snapshot-slot lookup.
  schedule.lag_slots_.reserve(schedule.lagged_faces_.size());
  for (std::size_t slot = 0; slot < schedule.lagged_faces_.size(); ++slot) {
    const auto& [e, f] = schedule.lagged_faces_[slot];
    schedule.lag_slots_.emplace_back(e * fem::kFacesPerHex + f,
                                     static_cast<int>(slot));
  }
  std::sort(schedule.lag_slots_.begin(), schedule.lag_slots_.end());
  return schedule;
}

ScheduleSet::ScheduleSet(const mesh::HexMesh& mesh,
                         const angular::QuadratureSet& quadrature,
                         CycleStrategy strategy)
    : per_octant_(quadrature.per_octant()), strategy_(strategy) {
  const int total = quadrature.total_angles();
  index_.resize(static_cast<std::size_t>(total));
  batches_.resize(angular::kOctants);

  // Dedup by the incoming-mask signature: identical masks => identical
  // dependency graph => identical schedule (the SCC breaker ranks faces by
  // the first matching angle's omega, but any lag set that makes the
  // shared graph acyclic is valid for every angle with that signature).
  std::map<std::vector<std::uint8_t>, int> seen;
  for (int oct = 0; oct < angular::kOctants; ++oct) {
    std::map<int, std::size_t> batch_of;  // schedule id -> batch position
    for (int a = 0; a < per_octant_; ++a) {
      const AngleDependency dep =
          build_dependency(mesh, quadrature.direction(oct, a));
      const auto [it, inserted] = seen.try_emplace(
          dep.incoming_mask, static_cast<int>(schedules_.size()));
      if (inserted) schedules_.push_back(build_schedule(mesh, dep, strategy));
      index_[static_cast<std::size_t>(oct) * per_octant_ + a] = it->second;

      auto& batches = batches_[static_cast<std::size_t>(oct)];
      const auto [bit, fresh] =
          batch_of.try_emplace(it->second, batches.size());
      if (fresh) batches.emplace_back();
      batches[bit->second].push_back(a);
    }
  }
}

ScheduleStats schedule_stats(const SweepSchedule& schedule) {
  ScheduleStats stats;
  stats.buckets = schedule.num_buckets();
  stats.lagged = static_cast<int>(schedule.lagged_faces().size());
  if (stats.buckets == 0) return stats;
  stats.min_bucket = static_cast<int>(schedule.bucket(0).size());
  for (int b = 0; b < stats.buckets; ++b) {
    const int size = static_cast<int>(schedule.bucket(b).size());
    stats.min_bucket = std::min(stats.min_bucket, size);
    stats.max_bucket = std::max(stats.max_bucket, size);
    stats.mean_bucket += size;
  }
  stats.mean_bucket /= stats.buckets;
  return stats;
}

ScheduleSetStats schedule_set_stats(const ScheduleSet& set, int threads) {
  ScheduleSetStats stats;
  stats.unique = set.unique_count();
  if (stats.unique == 0) return stats;
  threads = std::max(threads, 1);

  double bucket_sum = 0.0;
  long bucket_count = 0;
  double efficiency_sum = 0.0;
  for (int s = 0; s < stats.unique; ++s) {
    const SweepSchedule& schedule = set.unique_schedule(s);
    const ScheduleStats one = schedule_stats(schedule);
    stats.total_lagged += one.lagged;
    stats.max_bucket = std::max(stats.max_bucket, one.max_bucket);
    if (s == 0) {
      stats.min_buckets = stats.max_buckets = one.buckets;
    } else {
      stats.min_buckets = std::min(stats.min_buckets, one.buckets);
      stats.max_buckets = std::max(stats.max_buckets, one.buckets);
    }
    bucket_sum += one.mean_bucket * one.buckets;
    bucket_count += one.buckets;

    // Modelled bucket-parallel execution: each bucket costs
    // ceil(size / threads) rounds of `threads` lanes.
    long rounds = 0;
    for (int b = 0; b < schedule.num_buckets(); ++b)
      rounds += (static_cast<long>(schedule.bucket(b).size()) + threads - 1) /
                threads;
    if (rounds > 0)
      efficiency_sum += static_cast<double>(schedule.num_elements()) /
                        (static_cast<double>(threads) * rounds);
  }
  if (bucket_count > 0) stats.mean_bucket = bucket_sum / bucket_count;
  stats.parallel_efficiency = efficiency_sum / stats.unique;
  return stats;
}

}  // namespace unsnap::sweep
