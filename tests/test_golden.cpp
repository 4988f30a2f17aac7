// Golden regression battery: one small fixed deck per registered
// scenario, with stored digests of the physically meaningful outputs
// (balance terms, flux averages, schedule structure). Runs as its own
// binary labelled `golden` (ctest -L golden), so scheduler/sweeper
// refactors can be checked against frozen answers in one command.
//
// The problem definitions live in decks/golden/*.inp and are loaded
// through the deck-driven api::Run facade — the very path `unsnap --deck`
// exercises — so the battery freezes the deck parser and the run layer
// together with the physics. (The digests predate the deck port and were
// produced by the builder-configured path; the deck path reproducing them
// is the deck-equivalence acceptance test.)
//
// The digests were produced by this code at the PR that introduced it;
// they are compared with a relative tolerance wide enough for
// platform/compiler rounding differences (5e-7) but far tighter than any
// physical change a refactor could silently introduce. Every solving deck
// runs a FIXED iteration count (fixed_iterations = true): a
// converge-to-epsi deck would make the digest depend on the exact
// iteration count, which a last-ulp rounding difference in the stopping
// test could flip, shifting the digest by O(epsi). To regenerate after an
// *intentional* answer change: UNSNAP_GOLDEN_PRINT=1
// ./unsnap_golden_tests and paste the printed arrays.
//
// Both iteration schemes are frozen: UNSNAP_GOLDEN_SCHEME=gmres reruns
// the fast solving decks with sweep-preconditioned GMRES inners against
// their own digests (fixed budgets put the two schemes at different
// points on their iteration paths, so the frozen numbers differ per
// scheme). The schedule-structure deck (no solve), the block Jacobi deck
// (its sweep reads previous-iteration halos, so the exchange refuses
// gmres) and the time-integrator deck skip under gmres. Regenerate
// digests with both env vars set.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "api/report.hpp"
#include "api/run.hpp"
#include "comm/distributed.hpp"
#include "mesh/mesh_builder.hpp"
#include "sweep/schedule.hpp"

namespace unsnap {
namespace {

constexpr double kRelTol = 5e-7;

snap::IterationScheme golden_scheme() {
  const char* env = std::getenv("UNSNAP_GOLDEN_SCHEME");
  if (env == nullptr) return snap::IterationScheme::SourceIteration;
  return snap::iteration_scheme_from_string(env);
}

bool gmres_mode() {
  return golden_scheme() == snap::IterationScheme::Gmres;
}

/// UNSNAP_GOLDEN_PREASSEMBLY=explicit-inverse reruns the battery with the
/// sweep kernel on pre-assembled operators. The frozen digests are shared
/// with the assemble-and-solve path: preassembly only reorders the
/// per-element solve arithmetic, so the same numbers must come out within
/// kRelTol — that the battery passes in both modes IS the correctness pin
/// for the preassembled kernel.
snap::PreassemblyMode golden_preassembly() {
  const char* env = std::getenv("UNSNAP_GOLDEN_PREASSEMBLY");
  if (env == nullptr) return snap::PreassemblyMode::None;
  return snap::preassembly_from_string(env);
}

bool preassembly_mode() {
  return golden_preassembly() != snap::PreassemblyMode::None;
}

/// Load decks/golden/<name>.inp and pin the battery's iteration scheme.
api::RunConfig golden_config(const std::string& name) {
  api::RunConfig config = api::read_deck_file(
      std::string(UNSNAP_DECK_DIR) + "/golden/" + name + ".inp");
  config.iteration.scheme = golden_scheme();
  config.execution.preassembly = golden_preassembly();
  config.output.report = false;
  return config;
}

void check_digest(const char* name, const std::vector<double>& actual,
                  const std::vector<double>& expected) {
  if (std::getenv("UNSNAP_GOLDEN_PRINT") != nullptr) {
    std::printf("golden digest %s = {", name);
    for (std::size_t i = 0; i < actual.size(); ++i)
      std::printf("%s%.12e", i == 0 ? "" : ", ", actual[i]);
    std::printf("}\n");
    return;
  }
  ASSERT_EQ(actual.size(), expected.size()) << name;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const double scale = std::max(std::fabs(expected[i]), 1e-30);
    EXPECT_LT(std::fabs(actual[i] - expected[i]) / scale, kRelTol)
        << name << " entry " << i << ": " << actual[i] << " vs "
        << expected[i];
  }
}

/// Scheme-split digest comparison for decks that solve through run().
void check_digest(const char* name, const std::vector<double>& actual,
                  const std::vector<double>& si_expected,
                  const std::vector<double>& gmres_expected) {
  check_digest(name, actual, gmres_mode() ? gmres_expected : si_expected);
}

/// Balance terms + per-group volume averages of a solved single-domain
/// run (the standard solving-deck digest).
std::vector<double> solve_digest(api::Run& run) {
  (void)run.execute();
  const core::TransportSolver& solver = *run.solver();
  const core::BalanceReport balance = solver.balance();
  std::vector<double> digest{balance.source, balance.absorption,
                             balance.leakage};
  const std::vector<double> averages = api::group_volume_averages(
      solver.discretization(), solver.scalar_flux());
  digest.insert(digest.end(), averages.begin(), averages.end());
  return digest;
}

std::vector<double> solve_digest(const std::string& deck) {
  api::Run run(golden_config(deck));
  return solve_digest(run);
}

// ---- quickstart ----------------------------------------------------------

TEST(Golden, Quickstart) {
  check_digest("quickstart", solve_digest("quickstart"),
               {2.499999973958e-01, 8.038235669206e-02, 1.696163177132e-01, 6.189049784585e-02, 6.619177270897e-02},
               {2.499999973958e-01, 8.038235669206e-02, 1.696163177132e-01, 6.189049784585e-02, 6.619177270897e-02});
}

// ---- mini (full deck: high order, anisotropic scattering) ----------------

TEST(Golden, UnsnapMini) {
  check_digest("unsnap_mini", solve_digest("mini"),
               {9.374999826389e-02, 1.452594027320e-02, 7.861852935613e-02, 2.578226640787e-02, 2.599790424144e-02, 2.766821587587e-02},
               {9.374999826389e-02, 1.451728798334e-02, 7.854713348656e-02, 2.577750354482e-02, 2.598554836986e-02, 2.764361072483e-02});
}

// ---- shielding (custom cross sections + centroid regions) ----------------

TEST(Golden, Shielding) {
  api::Run run(golden_config("shielding"));
  (void)run.execute();
  const core::TransportSolver& solver = *run.solver();
  const core::BalanceReport balance = solver.balance();
  const double detector = api::region_average_flux(
      solver.discretization(), solver.scalar_flux(), 0,
      [](const fem::Vec3& c) { return c[2] > 1.8; });
  check_digest(
      "shielding",
      {balance.source, balance.absorption, balance.leakage, detector},
      {1.999999995885e+00, 5.774294218769e-01, 1.422570574008e+00, 1.326737888820e-04},
      {1.999999995885e+00, 5.774294218769e-01, 1.422570574008e+00, 1.326737888820e-04});
}

// ---- duct_streaming (near-void channel through an absorber) --------------

// The deck's duct on the coarse golden mesh (4 elements across: the
// central 2x2 column of elements is the duct).
bool in_duct(const fem::Vec3& c) {
  return std::fabs(c[1] - 0.5) < 0.26 && std::fabs(c[2] - 0.5) < 0.26;
}

TEST(Golden, DuctStreaming) {
  api::Run run(golden_config("duct_streaming"));
  (void)run.execute();
  const core::TransportSolver& solver = *run.solver();
  const double duct_exit = api::region_average_flux(
      solver.discretization(), solver.scalar_flux(), 0,
      [](const fem::Vec3& c) { return c[0] > 1.75 && in_duct(c); });
  const double absorber = api::region_average_flux(
      solver.discretization(), solver.scalar_flux(), 0,
      [](const fem::Vec3& c) { return !in_duct(c); });
  const core::BalanceReport balance = solver.balance();
  check_digest("duct_streaming",
               {balance.source, balance.absorption, balance.leakage,
                duct_exit, absorber},
               {6.249999934896e-02, 3.704301024310e-02, 2.545698910586e-02, 4.146819252934e-05, 5.155401185224e-03},
               {6.249999934896e-02, 3.704301024310e-02, 2.545698910586e-02, 4.146819252934e-05, 5.155401185224e-03});
}

// ---- convergence_order (MMS infrastructure, mode mms) --------------------

TEST(Golden, ConvergenceOrder) {
  api::Run run(golden_config("convergence_order"));
  const api::RunRecord record = run.execute();
  ASSERT_TRUE(record.mms_l2_error.has_value());
  // Scattering-free: the within-group operator is the identity, so both
  // schemes land on the single-sweep answer and share one digest.
  check_digest("convergence_order", {*record.mms_l2_error},
               {1.707221212791e-03});
}

// ---- pulse_decay (time-dependent mode) -----------------------------------

TEST(Golden, PulseDecay) {
  if (gmres_mode())
    GTEST_SKIP() << "digest exercises the time integrator, not the inner "
                    "scheme (the gmres battery covers the fast decks)";
  api::Run run(golden_config("pulse_decay"));
  const api::RunRecord record = run.execute();
  ASSERT_TRUE(record.initial_density.has_value());
  std::vector<double> digest{*record.initial_density};
  for (const api::RunRecord::TimeStep& step : record.steps)
    digest.push_back(step.total_density);
  check_digest("pulse_decay", digest,
               {2.499999953704e+00, 2.159140992263e+00, 1.857687069687e+00, 1.592031024932e+00});
}

// ---- domain_decomposition (block Jacobi) ---------------------------------

TEST(Golden, DomainDecomposition) {
  if (gmres_mode())
    GTEST_SKIP() << "block Jacobi refuses gmres: its sweep reads "
                    "previous-iteration halos, not the global operator";
  if (preassembly_mode())
    GTEST_SKIP() << "preassembly is a single-domain feature (the deck "
                    "validator rejects it with a decomposition)";
  api::Run run(golden_config("domain_decomposition"));
  (void)run.execute();
  const std::vector<double> flux = run.distributed()->gather_scalar_flux();
  const double total = std::accumulate(flux.begin(), flux.end(), 0.0);
  check_digest("domain_decomposition", {total},
               {1.035049522300e+02});
}

// ---- volumetric (pz > 1 bricks: the decomposition-invariance pin) --------

/// Global (element, group, node) flux of the same deck solved on a single
/// domain (decomposition stripped) — the `1*1*1` reference the volumetric
/// runs must reproduce bit for bit.
std::vector<double> single_domain_flux(api::RunConfig config) {
  config.decomposition = {};
  api::Run run(config);
  (void)run.execute();
  const core::TransportSolver& solver = *run.solver();
  const auto& disc = solver.discretization();
  std::vector<double> out;
  for (int e = 0; e < disc.num_elements(); ++e)
    for (int g = 0; g < config.materials.num_groups; ++g) {
      const double* ph = solver.scalar_flux().at(e, g);
      out.insert(out.end(), ph, ph + disc.num_nodes());
    }
  return out;
}

void expect_bitwise(const char* what, const std::vector<double>& actual,
                    const std::vector<double>& reference) {
  ASSERT_EQ(actual.size(), reference.size()) << what;
  for (std::size_t i = 0; i < actual.size(); ++i)
    ASSERT_EQ(actual[i], reference[i]) << what << " entry " << i;
}

TEST(Golden, VolumetricDecomposition) {
  if (preassembly_mode())
    GTEST_SKIP() << "preassembly is a single-domain feature (the deck "
                    "validator rejects it with a decomposition)";
  // The deck is scattering-free, so every exchange/scheme pair shares one
  // exact fixed point (see the deck's header comment): the gathered
  // brick-grid flux must equal the single domain BIT FOR BIT, not merely
  // within the digest tolerance.
  const api::RunConfig config = golden_config("volumetric");
  const std::vector<double> reference = single_domain_flux(config);

  // Pipelined exchange (the deck as shipped; both iteration schemes).
  api::Run run(config);
  (void)run.execute();
  const std::vector<double> flux = run.distributed()->gather_scalar_flux();
  expect_bitwise("volumetric pipelined", flux, reference);

  // Block Jacobi over the same bricks: iitm beyond the pipeline depth
  // converges the stale halos exactly. Source iteration only (the jacobi
  // exchange rejects GMRES by design).
  if (!gmres_mode()) {
    api::RunConfig jacobi = config;
    jacobi.decomposition.exchange = snap::SweepExchange::BlockJacobi;
    api::Run jrun(jacobi);
    (void)jrun.execute();
    expect_bitwise("volumetric jacobi",
                   jrun.distributed()->gather_scalar_flux(), reference);
  }

  // The frozen digest pins the answer itself (shared across schemes and
  // exchanges — that is the whole point of the deck).
  const double total = std::accumulate(flux.begin(), flux.end(), 0.0);
  check_digest("volumetric", {total},
               {1.100233180413e+02},
               {1.100233180413e+02});
}

// ---- criticality (mode = keff through the [xs] library) ------------------

TEST(Golden, Criticality) {
  api::Run run(golden_config("criticality"));
  const api::RunRecord record = run.execute();
  ASSERT_TRUE(record.keff.has_value());
  ASSERT_TRUE(record.balance.has_value());
  // The deck pins exactly 12 outers (see its header); the digest freezes
  // the eigenvalue, the fission-extended balance and the flux spectrum.
  ASSERT_EQ(record.keff->outers, 12);
  const xs::KeffSolver* solver = run.keff_solver();
  ASSERT_NE(solver, nullptr);
  std::vector<double> digest{record.keff->k, record.balance->fission,
                             record.balance->absorption,
                             record.balance->leakage};
  const std::vector<double> averages = api::group_volume_averages(
      *run.shared_discretization(), solver->scalar_flux());
  digest.insert(digest.end(), averages.begin(), averages.end());
  check_digest("criticality", digest,
               {6.212454589850e-01, 1.609669713536e+00, 1.327295098437e+00, 2.823746150960e-01, 3.069584867289e-02, 1.426462496927e-02},
               {6.212454590289e-01, 1.609669713422e+00, 1.327295098404e+00, 2.823746150183e-01, 3.069584867145e-02, 1.426462496852e-02});
}

// ---- sweep_explorer (schedule structure, no solve) -----------------------
//
// Stays below the deck layer on purpose: the digest freezes two schedule
// sets at once (acyclic + SCC-broken), which one deck cannot express; the
// deck-driven schedule mode is frozen separately in tests/test_run.cpp.

TEST(Golden, SweepExplorer) {
  if (gmres_mode()) GTEST_SKIP() << "schedule structure only, no solve";
  mesh::MeshOptions options;
  options.dims = {6, 6, 6};
  options.twist = 0.3;
  options.shuffle_seed = 9;
  const mesh::HexMesh mesh = mesh::build_brick_mesh(options);
  const angular::QuadratureSet quad(angular::QuadratureKind::SnapLike, 8);
  const sweep::ScheduleSet set(mesh, quad);
  const sweep::ScheduleStats stats = sweep::schedule_stats(set.get(0, 0));

  // Second structure: the SCC breaker's lag count on a cyclic mesh must
  // stay frozen too (it feeds the twisted deck space).
  mesh::MeshOptions cyclic = options;
  cyclic.twist = 2.5;
  const sweep::ScheduleSet broken(mesh::build_brick_mesh(cyclic), quad,
                                  sweep::CycleStrategy::LagScc);
  const sweep::ScheduleSetStats bstats =
      sweep::schedule_set_stats(broken, 1);
  check_digest("sweep_explorer",
               {static_cast<double>(set.unique_count()),
                static_cast<double>(stats.buckets),
                static_cast<double>(stats.min_bucket),
                static_cast<double>(stats.max_bucket),
                static_cast<double>(broken.unique_count()),
                static_cast<double>(bstats.total_lagged)},
               {2.400000000000e+01, 1.600000000000e+01, 1.000000000000e+00, 2.700000000000e+01, 6.400000000000e+01, 2.135000000000e+03});
}

// ---- twisted (the SCC cycle-breaking deck) -------------------------------

TEST(Golden, Twisted) {
  check_digest("twisted", solve_digest("twisted"),
               {1.979564625247e-01, 6.541542890052e-02, 1.325398553462e-01, 5.161305255374e-02, 5.276520531246e-02},
               {1.979564625247e-01, 6.539549567810e-02, 1.322142899222e-01, 5.160413207776e-02, 5.274238730756e-02});
}

// ---- diffusive family (scattering-dominated shield, c -> 1) --------------

TEST(Golden, DiffusiveC90) {
  check_digest("diffusive_c90", solve_digest("diffusive_c90"),
               {1.999999995885e+00, 6.757418148921e-01, 1.323993420005e+00, 1.910998991150e-01, 1.910998991150e-01},
               {1.999999995885e+00, 6.759436615560e-01, 1.324056334329e+00, 1.911220583663e-01, 1.911220583663e-01});
}

TEST(Golden, DiffusiveC99) {
  check_digest("diffusive_c99", solve_digest("diffusive_c99"),
               {1.999999995885e+00, 1.211408691347e-01, 1.847779374691e+00, 2.973387539195e-01, 2.973387539195e-01},
               {1.999999995885e+00, 1.290193524727e-01, 1.870980643407e+00, 3.056578301138e-01, 3.056578301138e-01});
}

TEST(Golden, DiffusiveC999) {
  check_digest("diffusive_c999", solve_digest("diffusive_c999"),
               {1.999999995885e+00, 1.327204998702e-02, 1.937863692790e+00, 3.177073840811e-01, 3.177073840811e-01},
               {1.999999995885e+00, 1.517356083155e-02, 1.984826435027e+00, 3.346108749721e-01, 3.346108749721e-01});
}

}  // namespace
}  // namespace unsnap
