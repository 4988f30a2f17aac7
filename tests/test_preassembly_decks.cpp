// Deck-driven preassembly equivalence battery: every shipped
// single-domain golden deck must produce the same answer whether the
// sweep kernel assembles and solves each (angle, element, group) system
// on the fly or applies the stored explicit inverse. The comparison is
// the full nodal scalar flux — far stricter than the golden battery's
// volume-average digests — at a tolerance that allows only the
// reordered solve arithmetic, never a physics difference. The twisted
// deck covers the lag-scc cycle-broken schedules; a dedicated test
// re-runs the battery's cyclic + quickstart decks under the AngleBatch
// scheme, whose batched inner loop is the kernel restructure this
// battery guards.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "api/run.hpp"
#include "api/run_config.hpp"
#include "core/transport_solver.hpp"

namespace unsnap {
namespace {

constexpr double kRelTol = 1e-9;

api::RunConfig battery_config(const std::string& name,
                              snap::PreassemblyMode mode) {
  api::RunConfig config = api::read_deck_file(
      std::string(UNSNAP_DECK_DIR) + "/golden/" + name + ".inp");
  config.execution.preassembly = mode;
  config.output.report = false;
  return config;
}

std::vector<double> nodal_flux(const api::Run& run) {
  const core::TransportSolver* solver = run.solver();
  if (solver == nullptr) return {};
  const double* data = solver->scalar_flux().data();
  return {data, data + solver->scalar_flux().size()};
}

void expect_close(const char* what, const std::vector<double>& reference,
                  const std::vector<double>& candidate) {
  ASSERT_EQ(reference.size(), candidate.size()) << what;
  for (std::size_t i = 0; i < reference.size(); ++i)
    EXPECT_NEAR(candidate[i], reference[i],
                kRelTol * (1.0 + std::fabs(reference[i])))
        << what << " entry " << i;
}

/// Run the deck in both modes and compare nodal fluxes against the
/// assemble-and-solve reference. Also checks the run record reports the
/// mode and a non-zero operator footprint.
void check_deck(const std::string& name) {
  api::Run reference(battery_config(name, snap::PreassemblyMode::None));
  const api::RunRecord ref_record = reference.execute();
  EXPECT_EQ(ref_record.config.preassembly, "none");
  EXPECT_EQ(ref_record.config.preassembly_bytes, 0u);

  api::Run run(battery_config(name, snap::PreassemblyMode::ExplicitInverse));
  const api::RunRecord record = run.execute();
  EXPECT_EQ(record.config.preassembly, "explicit-inverse");
  EXPECT_GT(record.config.preassembly_bytes, 0u);
  expect_close(name.c_str(), nodal_flux(reference), nodal_flux(run));
  if (ref_record.mms_l2_error.has_value()) {
    ASSERT_TRUE(record.mms_l2_error.has_value());
    EXPECT_NEAR(*record.mms_l2_error, *ref_record.mms_l2_error,
                kRelTol * (1.0 + *ref_record.mms_l2_error));
  }
  ASSERT_EQ(record.steps.size(), ref_record.steps.size());
  for (std::size_t s = 0; s < record.steps.size(); ++s)
    EXPECT_NEAR(record.steps[s].total_density,
                ref_record.steps[s].total_density,
                kRelTol * (1.0 + ref_record.steps[s].total_density));
}

class PreassemblyDecks : public ::testing::TestWithParam<const char*> {};

TEST_P(PreassemblyDecks, AllModesAgreeOnTheNodalFlux) {
  check_deck(GetParam());
}

// Every shipped single-domain golden deck: steady solves (quickstart,
// mini's anisotropic scattering, shielding's custom cross sections, the
// duct's near-void streaming, the diffusive c->1 family), the twisted
// lag-scc cycle deck, the manufactured-solution deck (mode mms) and the
// time integrator (mode time). domain_decomposition is excluded by
// construction: the validator rejects preassembly with a decomposition.
INSTANTIATE_TEST_SUITE_P(GoldenDecks, PreassemblyDecks,
                         ::testing::Values("quickstart", "mini", "shielding",
                                           "duct_streaming", "twisted",
                                           "diffusive_c90", "diffusive_c99",
                                           "diffusive_c999",
                                           "convergence_order",
                                           "pulse_decay"));

TEST(PreassemblyDecks, AngleBatchSchemeAgreesToo) {
  // The batched sweep walks a shared bucket list with per-batch angle
  // tables — a different assembler call pattern than the per-angle
  // schemes — so pin it separately, on both an acyclic deck and the
  // cycle-broken twisted deck.
  for (const char* name : {"quickstart", "twisted"}) {
    api::RunConfig ref_config =
        battery_config(name, snap::PreassemblyMode::None);
    ref_config.execution.scheme = snap::ConcurrencyScheme::AngleBatch;
    api::Run reference(std::move(ref_config));
    (void)reference.execute();
    const std::vector<double> ref_flux = nodal_flux(reference);

    api::RunConfig config =
        battery_config(name, snap::PreassemblyMode::ExplicitInverse);
    config.execution.scheme = snap::ConcurrencyScheme::AngleBatch;
    api::Run run(std::move(config));
    (void)run.execute();
    expect_close(name, ref_flux, nodal_flux(run));
  }
}

}  // namespace
}  // namespace unsnap
