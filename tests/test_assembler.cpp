#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/assembler.hpp"
#include "core/preassembly.hpp"
#include "util/rng.hpp"

namespace unsnap::core {
namespace {

std::uint64_t bits(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

// An order-1 problem with ng groups, random source, angular source and
// angular flux, and one mid-sweep bucket per (octant, angle batch). A
// bucket's elements read only upwind neighbours in earlier buckets, and
// different angles never read each other's psi, so the units below are
// independent: any submission order and any batching must give the same
// bits.
struct LaneProblem {
  explicit LaneProblem(int ng) {
    input.dims = {4, 3, 3};
    input.order = 1;
    input.nang = 3;
    input.ng = ng;
    input.twist = 0.001;
    input.shuffle_seed = 11;
    disc = std::make_shared<const Discretization>(input);
    problem = std::make_unique<ProblemData>(*disc, input);
    const int ne = disc->num_elements();
    const int n = disc->num_nodes();
    psi = AngularFlux(input.layout, input.nang, ne, ng, n);
    qang = AngularFlux(input.layout, input.nang, ne, ng, n);
    phi = NodalField(input.layout, ne, ng, n);
    qin = NodalField(input.layout, ne, ng, n);
    Rng rng(900 + static_cast<std::uint64_t>(ng));
    for (std::size_t i = 0; i < psi.size(); ++i) {
      psi.data()[i] = rng.uniform(0.0, 2.0);
      qang.data()[i] = rng.uniform(0.0, 0.5);
    }
    for (std::size_t i = 0; i < qin.size(); ++i)
      qin.data()[i] = rng.uniform(0.0, 1.0);
  }

  // Each (octant, angle batch)'s middle bucket as units, in the default
  // elements-groups order (angle, element, group: an element's groups
  // consecutive) or the angle-batch order (element, angle, group).
  [[nodiscard]] std::vector<SweepUnit> units(bool angle_batch) {
    std::vector<SweepUnit> out;
    const sweep::ScheduleSet& schedules = disc->schedules();
    state.schedule = nullptr;  // set per unit below
    states.clear();
    states.reserve(static_cast<std::size_t>(angular::kOctants) *
                   input.nang);
    for (int oct = 0; oct < angular::kOctants; ++oct)
      for (const std::vector<int>& batch : schedules.batches(oct)) {
        const sweep::SweepSchedule& schedule = schedules.get(oct, batch[0]);
        states.push_back(state);
        states.back().schedule = &schedule;
        const SweepState* bound = &states.back();
        const auto bucket = schedule.bucket(schedule.num_buckets() / 2);
        const auto add = [&](int a, int e, int g) {
          out.push_back({bound, disc->quadrature().direction(oct, a),
                         disc->quadrature().weight(a), oct, a, e, g});
        };
        if (angle_batch) {
          for (const int e : bucket)
            for (const int a : batch)
              for (int g = 0; g < input.ng; ++g) add(a, e, g);
        } else {
          for (const int a : batch)
            for (const int e : bucket)
              for (int g = 0; g < input.ng; ++g) add(a, e, g);
        }
      }
    return out;
  }

  void bind(AngularFlux& psi_out, NodalField& phi_out,
            const PreassembledOperator* pre) {
    state.psi = &psi_out;
    state.phi = &phi_out;
    state.qin = &qin;
    state.qang = &qang;
    state.pre = pre;
  }

  snap::Input input;
  std::shared_ptr<const Discretization> disc;
  std::unique_ptr<ProblemData> problem;
  AngularFlux psi, qang;
  NodalField phi, qin;
  SweepState state;
  std::vector<SweepState> states;  // one per schedule, reserved up front
};

// Queue the units through submit/flush, starting `skip` units in so the
// lane batches cut the runs of one (angle, element) at other places, and
// require every psi and phi bit to match process() run one unit at a time
// in the same order. With `preassembled` the units are applied through a
// stored operator instead of solved in lockstep.
void expect_flush_matches_process(int ng, bool angle_batch,
                                  linalg::SolverKind solver, int skip,
                                  bool preassembled) {
  LaneProblem p(ng);
  const Assembler assembler(*p.disc, *p.problem);
  const int n = p.disc->num_nodes();
  const int nf = p.disc->nodes_per_face();
  std::unique_ptr<PreassembledOperator> pre;
  if (preassembled) pre = std::make_unique<PreassembledOperator>(assembler);

  AngularFlux psi_ref = p.psi;
  NodalField phi_ref = p.phi;
  p.bind(psi_ref, phi_ref, pre.get());
  std::vector<SweepUnit> units = p.units(angle_batch);
  ASSERT_GT(units.size(), static_cast<std::size_t>(2 * linalg::kLanes));
  if (angle_batch) {
    // Some element really does interleave the groups of several angles.
    bool interleaved = false;
    for (std::size_t i = 1; i < units.size(); ++i)
      interleaved |= units[i].e == units[i - 1].e &&
                     units[i].a != units[i - 1].a;
    ASSERT_TRUE(interleaved);
  }
  units.erase(units.begin(), units.begin() + skip);
  AssemblyContext one;
  one.resize(n, nf);
  for (const SweepUnit& u : units)
    assembler.process<8, 4>(one, *u.state, u.oct, u.a, u.e, u.g, u.omega,
                            u.weight, solver, false, false);

  AngularFlux psi_lanes = p.psi;
  NodalField phi_lanes = p.phi;
  p.bind(psi_lanes, phi_lanes, pre.get());
  units = p.units(angle_batch);  // rebinds the states to the lane fields
  units.erase(units.begin(), units.begin() + skip);
  AssemblyContext ctx;
  ctx.resize(n, nf);
  const KernelOptions options{solver, false, false};
  for (const SweepUnit& u : units) assembler.submit<8, 4>(ctx, u, options);
  assembler.flush<8, 4>(ctx, options);

  long psi_mismatches = 0, phi_mismatches = 0;
  for (std::size_t i = 0; i < psi_ref.size(); ++i)
    psi_mismatches += bits(psi_ref.data()[i]) != bits(psi_lanes.data()[i]);
  for (std::size_t i = 0; i < phi_ref.size(); ++i)
    phi_mismatches += bits(phi_ref.data()[i]) != bits(phi_lanes.data()[i]);
  EXPECT_EQ(psi_mismatches, 0);
  EXPECT_EQ(phi_mismatches, 0);

  // The units really were solved: every one of them moved its psi row.
  long untouched = 0;
  for (const SweepUnit& u : units)
    untouched += std::memcmp(psi_lanes.at(u.oct, u.a, u.e, u.g),
                             p.psi.at(u.oct, u.a, u.e, u.g),
                             sizeof(double) * static_cast<std::size_t>(n)) ==
                 0;
  EXPECT_EQ(untouched, 0);
}

TEST(Assembler, LockstepBatchesMatchOneUnitAtATimeBitwise) {
  for (const int ng : {1, 2, 3, 5})
    for (const bool angle_batch : {false, true})
      for (const linalg::SolverKind solver :
           {linalg::SolverKind::GaussianElimination,
            linalg::SolverKind::GaussianEliminationNoPivot})
        for (const int skip : {0, 1, 3}) {
          SCOPED_TRACE("ng " + std::to_string(ng) +
                       (angle_batch ? ", angle-batch order"
                                    : ", elements-groups order") +
                       ", " + linalg::to_string(solver) + ", skip " +
                       std::to_string(skip));
          expect_flush_matches_process(ng, angle_batch, solver, skip,
                                       /*preassembled=*/false);
        }
}

TEST(Assembler, PreassembledBatchesMatchOneUnitAtATimeBitwise) {
  for (const int ng : {1, 3, 4})
    for (const bool angle_batch : {false, true})
      for (const int skip : {0, 3}) {
        SCOPED_TRACE("ng " + std::to_string(ng) +
                     (angle_batch ? ", angle-batch order"
                                  : ", elements-groups order") +
                     ", skip " + std::to_string(skip));
        expect_flush_matches_process(
            ng, angle_batch, linalg::SolverKind::GaussianElimination, skip,
            /*preassembled=*/true);
      }
}

}  // namespace
}  // namespace unsnap::core
