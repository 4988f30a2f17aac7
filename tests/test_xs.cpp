// The multigroup cross-section library (src/xs/library.*): MATXS-lite
// text parsing with located golden errors, exact write/read round-trips,
// the synthetic SNAP-style generator behind the classic deck route, and
// groupset partition parsing/derivation.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "snap/data.hpp"
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

TEST(XsLibrary, SyntheticMatchesClassicGenerator) {
  // snap::make_cross_sections is now a veneer over Library::synthetic;
  // the lowered tables must agree bitwise so every classic deck and
  // golden digest is untouched by the xs layer.
  for (const int ng : {1, 2, 4}) {
    const snap::CrossSections classic = snap::make_cross_sections(ng, 0.5, 2);
    const snap::CrossSections lowered =
        Library::synthetic(ng, 0.5, 2).cross_sections();
    ASSERT_EQ(lowered.num_materials, classic.num_materials);
    ASSERT_EQ(lowered.ng, classic.ng);
    ASSERT_EQ(lowered.nmom, classic.nmom);
    for (int m = 0; m < classic.num_materials; ++m)
      for (int g = 0; g < ng; ++g) {
        EXPECT_EQ(lowered.sigt(m, g), classic.sigt(m, g));
        EXPECT_EQ(lowered.sigs(m, g), classic.sigs(m, g));
        EXPECT_EQ(lowered.siga(m, g), classic.siga(m, g));
        for (int gt = 0; gt < ng; ++gt)
          EXPECT_EQ(lowered.slgg(m, g, gt), classic.slgg(m, g, gt));
      }
  }
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

TEST(XsLibrary, CrossSectionsSelectsAndSlices) {
  const Library lib = sample_library();
  const snap::CrossSections sel = lib.cross_sections({"clad"});
  EXPECT_EQ(sel.num_materials, 1);
  EXPECT_EQ(sel.sigt(0, 1), 1.5);
  EXPECT_EQ(sel.sigs(0, 0), 0.25);  // the scalar override wins
  EXPECT_FALSE(sel.has_fission());  // clad alone carries no nu_sigf

  const snap::CrossSections sliced = lib.cross_sections({}, 1);
  EXPECT_EQ(sliced.nmom, 1);
  EXPECT_EQ(sliced.slgg_hi.size(), 0u);
  EXPECT_TRUE(sliced.has_fission());
  EXPECT_EQ(sliced.nu_sigf(0, 0), 0.48);
  EXPECT_EQ(sliced.chi(0, 0), 1.0);

  EXPECT_THROW((void)lib.cross_sections({"poison"}), InvalidInput);
  EXPECT_THROW((void)lib.cross_sections({}, 3), InvalidInput);
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
  EXPECT_EQ(format_groupsets(sets), "0:1,2,3:5");
  EXPECT_EQ(parse_groupsets(format_groupsets(sets), 6).size(), 3u);
}

TEST(XsGroupsets, ParseErrors) {
  EXPECT_THROW((void)parse_groupsets("1:3", 4), InvalidInput);   // gap at 0
  EXPECT_THROW((void)parse_groupsets("0:1,3", 4), InvalidInput); // gap
  EXPECT_THROW((void)parse_groupsets("0:2,1:3", 4), InvalidInput);
  EXPECT_THROW((void)parse_groupsets("0:2", 4), InvalidInput);   // short
  EXPECT_THROW((void)parse_groupsets("0:x", 2), InvalidInput);
  EXPECT_THROW((void)parse_groupsets("0,,1", 2), InvalidInput);
  EXPECT_THROW((void)parse_groupsets("1:0", 2), InvalidInput);
}

TEST(XsGroupsets, DefaultPartitionFollowsScatteringStructure) {
  // Pure downscatter (the sample library) splits one set per group.
  const auto split = default_groupsets(sample_library().cross_sections());
  ASSERT_EQ(split.size(), 2u);
  EXPECT_EQ(split[0].lo, 0);
  EXPECT_EQ(split[0].hi, 0);
  EXPECT_EQ(split[1].lo, 1);
  EXPECT_EQ(split[1].hi, 1);

  // The synthetic generator upscatters one group, fusing everything.
  const auto fused =
      default_groupsets(Library::synthetic(4, 0.5).cross_sections());
  ASSERT_EQ(fused.size(), 1u);
  EXPECT_EQ(fused[0].lo, 0);
  EXPECT_EQ(fused[0].hi, 3);
}

}  // namespace
}  // namespace unsnap::xs
