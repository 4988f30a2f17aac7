// The multigroup cross-section library (src/xs/library.*): MATXS-lite
// text parsing with located golden errors, exact write/read round-trips,
// the synthetic SNAP-style generator behind the generated deck route,
// the select/slice views the solver reads, and groupset partition
// parsing/derivation.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "util/assert.hpp"
#include "xs/library.hpp"

namespace unsnap::xs {
namespace {

/// A deliberately feature-complete library: two groups, two Legendre
/// orders, velocities, a fissile material, and a sigs-override material.
Library sample_library() {
  Library lib;
  lib.ng = 2;
  lib.nmom = 2;
  lib.velocity = {2.0, 0.7};

  Material fuel;
  fuel.name = "fuel";
  fuel.sigt = {2.0, 3.2};
  fuel.nu_sigf = {0.48, 0.96};
  fuel.chi = {1.0, 0.0};
  fuel.sigs.resize({2, 2, 2}, 0.0);
  fuel.sigs(0, 0, 0) = 1.2;
  fuel.sigs(0, 0, 1) = 0.4;
  fuel.sigs(0, 1, 1) = 2.0;
  fuel.sigs(1, 0, 0) = 0.3;
  fuel.sigs(1, 1, 1) = 0.5;
  lib.materials.push_back(fuel);

  Material clad;
  clad.name = "clad";
  clad.sigt = {1.0, 1.5};
  // The scalar sigs override carries the scattering; the transfer matrix
  // stays zero (allocated, as the parser always does).
  clad.sigs_total = {0.25, 0.75};
  clad.sigs.resize({2, 2, 2}, 0.0);
  lib.materials.push_back(clad);

  lib.validate();
  return lib;
}

TEST(XsLibrary, WriteReadRoundTripIsExact) {
  const Library lib = sample_library();
  const std::string text = write_library(lib);
  const Library back = read_library_text(text, "roundtrip.xs");
  // deck_double prints %.17g, so every double survives bitwise and the
  // libraries compare equal member by member.
  EXPECT_TRUE(back == lib) << text;
  // Idempotent: a second trip reproduces the same text.
  EXPECT_EQ(write_library(back), text);
}

TEST(XsLibrary, SyntheticRoundTripsThroughText) {
  const Library lib = Library::synthetic(4, 0.6, 3);
  const Library back =
      read_library_text(write_library(lib), "synthetic.xs");
  EXPECT_TRUE(back == lib);
}

TEST(XsLibrary, SyntheticTransferRowsSumToScalarSigs) {
  const Library lib = Library::synthetic(5, 0.7, 1);
  for (const Material& m : lib.materials) {
    ASSERT_EQ(m.sigs_total.size(), 5u);
    for (int g = 0; g < lib.ng; ++g) {
      double row = 0.0;
      for (int gt = 0; gt < lib.ng; ++gt) row += m.sigs(0, g, gt);
      EXPECT_NEAR(row, m.sigs_total[static_cast<std::size_t>(g)], 1e-13);
    }
  }
  // SNAP group speeds: fastest group first, 1 / (1 + g/2).
  for (int g = 0; g < lib.ng; ++g)
    EXPECT_DOUBLE_EQ(lib.velocity[static_cast<std::size_t>(g)],
                     1.0 / (1.0 + 0.5 * g));
}

TEST(XsLibrary, SyntheticScatteringRatioRespected) {
  const Library lib = Library::synthetic(4, 0.25);
  const Material& m = lib.materials[0];
  EXPECT_NEAR(m.scattering_total(0) / m.sigt[0], 0.25, 1e-13);
  EXPECT_THROW((void)Library::synthetic(4, 1.0), InvalidInput);
  EXPECT_THROW((void)Library::synthetic(0, 0.5), InvalidInput);
}

// SNAP's generated data ("Source and Material Option 1") over group counts.
class XsGroups : public ::testing::TestWithParam<int> {};

TEST_P(XsGroups, RowsSumToScattering) {
  const int ng = GetParam();
  for (const Material& m : Library::synthetic(ng, 0.5).materials)
    for (int g = 0; g < ng; ++g) {
      double row = 0.0;
      for (int gp = 0; gp < ng; ++gp) row += m.sigs(0, g, gp);
      EXPECT_NEAR(row, m.scattering_total(g), 1e-13);
    }
}

TEST_P(XsGroups, TotalsDecomposeAndArePositive) {
  const int ng = GetParam();
  for (const Material& m : Library::synthetic(ng, 0.7).materials)
    for (int g = 0; g < ng; ++g) {
      const double sigt = m.sigt[static_cast<std::size_t>(g)];
      EXPECT_GT(sigt, 0.0);
      EXPECT_GT(sigt - m.scattering_total(g), 0.0);  // real absorption
      EXPECT_GE(m.scattering_total(g), 0.0);
    }
}

TEST_P(XsGroups, SnapStyleGroupIncrements) {
  const int ng = GetParam();
  const Library lib = Library::synthetic(ng, 0.5);
  const std::vector<double>& sigt = lib.materials[0].sigt;
  for (std::size_t g = 1; g < sigt.size(); ++g)
    EXPECT_NEAR(sigt[g] - sigt[g - 1], 0.01, 1e-13);
  EXPECT_NEAR(sigt[0], 1.0, 1e-13);
  EXPECT_NEAR(lib.materials[1].sigt[0], 2.0, 1e-13);
}

TEST_P(XsGroups, TransferEntriesNonNegative) {
  const Library lib = Library::synthetic(GetParam(), 0.9);
  for (const Material& m : lib.materials)
    for (int g = 0; g < lib.ng; ++g)
      for (int gp = 0; gp < lib.ng; ++gp) EXPECT_GE(m.sigs(0, g, gp), 0.0);
}

TEST_P(XsGroups, UpscatterPresentExceptTopGroup) {
  const int ng = GetParam();
  if (ng < 2) return;
  const Material m = Library::synthetic(ng, 0.5).materials[0];
  // Group 0 has no higher-energy group: its upscatter share folds back
  // in-group (0.7 + 0.1 of sigs); every other group upscatters.
  EXPECT_NEAR(m.sigs(0, 0, 0), 0.8 * m.scattering_total(0), 1e-13);
  for (int g = 1; g < ng; ++g) EXPECT_GT(m.sigs(0, g, g - 1), 0.0);
}

INSTANTIATE_TEST_SUITE_P(GroupCounts, XsGroups,
                         ::testing::Values(1, 2, 4, 16, 64));

TEST(XsLibrary, SelectPicksOrdersAndTruncates) {
  const Library lib = sample_library();
  const Library sel = lib.select({"clad", "fuel"});
  ASSERT_EQ(sel.materials.size(), 2u);
  EXPECT_TRUE(sel.materials[0] == lib.materials[1]);
  EXPECT_TRUE(sel.materials[1] == lib.materials[0]);
  EXPECT_EQ(sel.velocity, lib.velocity);
  EXPECT_EQ(sel.materials[0].scattering_total(0), 0.25);  // override wins
  EXPECT_FALSE(lib.select({"clad"}).has_fission());

  const Library cut = lib.select({}, 1);
  EXPECT_EQ(cut.nmom, 1);
  ASSERT_EQ(cut.materials[0].sigs.extent(0), 1u);
  EXPECT_EQ(cut.materials[0].sigs(0, 0, 1), 0.4);
  EXPECT_TRUE(cut.has_fission());
  EXPECT_EQ(cut.materials[0].chi, lib.materials[0].chi);

  // A material without scatter lines reads as zeros of the full shape.
  Library bare = lib;
  bare.materials[1].sigs = NDArray<double, 3>();
  const Material& clad = bare.select().materials[1];
  ASSERT_EQ(clad.sigs.size(), 8u);
  EXPECT_EQ(clad.sigs(1, 1, 1), 0.0);

  EXPECT_THROW((void)lib.select({"poison"}), InvalidInput);
  EXPECT_THROW((void)lib.select({}, 3), InvalidInput);
}

TEST(XsLibrary, SliceKeepsGlobalScatteringAndDropsFission) {
  const Library lib = sample_library();
  const Library fast = lib.slice(0, 0);
  EXPECT_EQ(fast.ng, 1);
  EXPECT_EQ(fast.nmom, 2);
  EXPECT_TRUE(fast.velocity.empty());
  const Material& fuel = fast.materials[0];
  EXPECT_EQ(fuel.sigt, std::vector<double>{2.0});
  EXPECT_EQ(fuel.sigs(0, 0, 0), 1.2);  // the in-block transfer only
  EXPECT_EQ(fuel.sigs(1, 0, 0), 0.3);
  // The 0 -> 1 transfer leaves the block but stays in the total, so the
  // groupset's absorption is the global one.
  EXPECT_EQ(fuel.scattering_total(0), lib.materials[0].scattering_total(0));
  EXPECT_FALSE(fast.has_fission());
  EXPECT_EQ(lib.slice(1, 1).materials[1].scattering_total(0), 0.75);
  EXPECT_THROW((void)lib.slice(1, 2), InvalidInput);
}

// --- parser golden errors --------------------------------------------------

void expect_library_error(const std::string& text, const std::string& needle) {
  try {
    (void)read_library_text(text, "t.xs");
    FAIL() << "expected InvalidInput containing: " << needle;
  } catch (const InvalidInput& err) {
    EXPECT_NE(std::string(err.what()).find(needle), std::string::npos)
        << "got: " << err.what();
  }
}

TEST(XsLibrary, GoldenParserErrors) {
  expect_library_error("material fuel\n",
                       "t.xs:1:1: 'material' before the groups declaration");
  expect_library_error("groups 2\ngroups 2\n",
                       "t.xs:2:1: duplicate groups declaration");
  expect_library_error("groups 0\n", "t.xs:1:8: groups must be positive");
  expect_library_error("groups two\n",
                       "t.xs:1:8: expected an integer, got 'two'");
  expect_library_error("groups 2\nvelocities 1.0\n",
                       "t.xs:2:1: 'velocities' needs 2 values (got 1)");
  expect_library_error("groups 2\nvelocities 1.0 -1.0\n",
                       "t.xs:2:16: group velocities must be positive");
  expect_library_error("groups 1\nend\n",
                       "t.xs:2:1: 'end' without an open material");
  expect_library_error("groups 1\nbogus 3\n",
                       "t.xs:2:1: unknown keyword 'bogus'");
  expect_library_error(
      "groups 1\nmaterial a\nsigt 1\nend\nmaterial a\nsigt 1\nend\n",
      "t.xs:5:10: duplicate material 'a'");
  expect_library_error("groups 1\nmaterial a\nend\n",
                       "t.xs:3:1: material 'a': missing sigt");
  expect_library_error("groups 1\nmaterial a\nsigt 1\nnu_sigf 0.5\nend\n",
                       "t.xs:5:1: material 'a': nu_sigf without chi");
  expect_library_error(
      "groups 2\nmaterial a\nsigt 1 1\nnu_sigf 1 1\nchi 0.5 0.6\nend\n",
      "t.xs:5:1: material 'a': chi must sum to 1 (got 1.1");
  expect_library_error(
      "groups 2\nmaterial a\nsigt 1 1\nscatter 0 2 0 0.1\nend\n",
      "t.xs:4:11: material 'a': group 2 out of range 0..1");
  expect_library_error(
      "groups 1\nmaterial a\nsigt 1\nscatter 1 0 0 0.1\nend\n",
      "t.xs:4:9: material 'a': scatter order 1 out of range 0..0");
  expect_library_error(
      "groups 1\nmaterial a\nsigt 1\n"
      "scatter 0 0 0 0.1\nscatter 0 0 0 0.2\nend\n",
      "t.xs:5:1: material 'a': duplicate scatter entry (0, 0, 0)");
  expect_library_error(
      "groups 1\nmaterial a\nsigt 1\nscatter 0 0 0 1.5\nend\n",
      "t.xs:5:1: material 'a': group 0 scattering exceeds the total cross "
      "section");
  expect_library_error("groups 1\nmaterial a\nsigt 1\n",
                       "t.xs:2:1: material 'a' is not closed (missing end)");
  // strtod reads inf and nan (and overflows to inf); every cross-section
  // value and velocity must be finite.
  expect_library_error("groups 1\nmaterial a\nsigt inf\nend\n",
                       "t.xs:3:6: expected a finite number, got 'inf'");
  expect_library_error("groups 1\nmaterial a\nsigt nan\nend\n",
                       "t.xs:3:6: expected a finite number, got 'nan'");
  expect_library_error("groups 1\nmaterial a\nsigt 1e999\nend\n",
                       "t.xs:3:6: expected a finite number, got '1e999'");
  expect_library_error("groups 1\nmaterial a\nsigt 1\nsigs nan\nend\n",
                       "t.xs:4:6: expected a finite number, got 'nan'");
  expect_library_error(
      "groups 2\nmaterial a\nsigt 1 1\nnu_sigf 1 inf\nchi 1 0\nend\n",
      "t.xs:4:11: expected a finite number, got 'inf'");
  expect_library_error(
      "groups 2\nmaterial a\nsigt 1 1\nnu_sigf 1 1\nchi nan 1\nend\n",
      "t.xs:5:5: expected a finite number, got 'nan'");
  expect_library_error("groups 2\nvelocities 1.0 inf\n",
                       "t.xs:2:16: expected a finite number, got 'inf'");
  expect_library_error(
      "groups 1\nmaterial a\nsigt 1\nscatter 0 0 0 nan\nend\n",
      "t.xs:4:15: expected a finite number, got 'nan'");
  expect_library_error(
      "groups 1\nmoments 2\nmaterial a\nsigt 1\nscatter 1 0 0 -inf\nend\n",
      "t.xs:5:15: expected a finite number, got '-inf'");
  // Integers past the int range are refused where they stand, not wrapped.
  expect_library_error("groups 4294967298\n",
                       "t.xs:1:8: integer '4294967298' out of range");
  expect_library_error("groups 1\nmoments 4294967297\n",
                       "t.xs:2:9: integer '4294967297' out of range");
  expect_library_error(
      "groups 2\nmaterial a\nsigt 1 1\nscatter 0 4294967296 1 0.3\nend\n",
      "t.xs:4:11: integer '4294967296' out of range");
  expect_library_error("# only comments\n",
                       "t.xs: missing 'groups' declaration");
  expect_library_error("groups 4\n", "t.xs: library has no materials");
}

TEST(XsLibrary, CommentsAndBlankLinesIgnored) {
  const Library lib = read_library_text(
      "# leading comment\n"
      "groups 1   ! trailing\n"
      "\n"
      "material m  # name comment\n"
      "  sigt 2.0\n"
      "  sigs 1.0\n"
      "end\n",
      "c.xs");
  EXPECT_EQ(lib.ng, 1);
  ASSERT_EQ(lib.materials.size(), 1u);
  EXPECT_EQ(lib.materials[0].scattering_total(0), 1.0);
  EXPECT_FALSE(lib.has_fission());
}

// --- groupsets -------------------------------------------------------------

TEST(XsGroupsets, ParseAndFormat) {
  const auto sets = parse_groupsets("0:1, 2, 3:5", 6);
  ASSERT_EQ(sets.size(), 3u);
  EXPECT_EQ(sets[0].lo, 0);
  EXPECT_EQ(sets[0].hi, 1);
  EXPECT_EQ(sets[1].size(), 1);
  EXPECT_EQ(sets[2].size(), 3);
  EXPECT_EQ(sets[1].lo, 2);
}

TEST(XsGroupsets, ParseErrors) {
  EXPECT_THROW((void)parse_groupsets("1:3", 4), InvalidInput);   // gap at 0
  EXPECT_THROW((void)parse_groupsets("0:1,3", 4), InvalidInput); // gap
  EXPECT_THROW((void)parse_groupsets("0:2,1:3", 4), InvalidInput);
  EXPECT_THROW((void)parse_groupsets("0:2", 4), InvalidInput);   // short
  EXPECT_THROW((void)parse_groupsets("0:x", 2), InvalidInput);
  EXPECT_THROW((void)parse_groupsets("0,,1", 2), InvalidInput);
  EXPECT_THROW((void)parse_groupsets("1:0", 2), InvalidInput);
  // Groups past the int range are refused, not wrapped onto 0:1.
  EXPECT_THROW((void)parse_groupsets("0:4294967297", 2), InvalidInput);
  EXPECT_THROW((void)parse_groupsets("4294967296:1", 2), InvalidInput);
}

TEST(XsGroupsets, DefaultPartitionFollowsScatteringStructure) {
  // Pure downscatter (the sample library) splits one set per group.
  const auto split = default_groupsets(sample_library());
  ASSERT_EQ(split.size(), 2u);
  EXPECT_EQ(split[0].lo, 0);
  EXPECT_EQ(split[0].hi, 0);
  EXPECT_EQ(split[1].lo, 1);
  EXPECT_EQ(split[1].hi, 1);

  // The synthetic generator upscatters one group, fusing everything.
  const auto fused =
      default_groupsets(Library::synthetic(4, 0.5));
  ASSERT_EQ(fused.size(), 1u);
  EXPECT_EQ(fused[0].lo, 0);
  EXPECT_EQ(fused[0].hi, 3);
}

}  // namespace
}  // namespace unsnap::xs
