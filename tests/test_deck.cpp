// SNAP-style deck layer: the lexical parser (snap/deck.*), the RunConfig
// binding (api/run_config.*), golden error messages with line/column
// positions, and bit-exact round-trips of every shipped deck.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "api/run_config.hpp"
#include "snap/deck.hpp"
#include "util/assert.hpp"

namespace unsnap {
namespace {

// --- lexical layer --------------------------------------------------------

TEST(DeckParser, SectionsEntriesAndComments) {
  const snap::DeckFile deck = snap::read_deck_text(
      "# header comment\n"
      "\n"
      "[mesh]\n"
      "dims = 4 4 4   ! trailing comment\n"
      "twist = 0.5\n"
      "\n"
      "[angular]\n"
      "nang = 8\n",
      "t.inp");
  ASSERT_EQ(deck.sections.size(), 2u);
  EXPECT_EQ(deck.sections[0].name, "mesh");
  EXPECT_EQ(deck.sections[0].line, 3);
  ASSERT_EQ(deck.sections[0].entries.size(), 2u);
  EXPECT_EQ(deck.sections[0].entries[0].key, "dims");
  EXPECT_EQ(deck.sections[0].entries[0].value, "4 4 4");
  EXPECT_EQ(deck.sections[0].entries[0].line, 4);
  EXPECT_EQ(deck.sections[0].entries[0].column, 8);
  EXPECT_EQ(deck.sections[1].entries[0].key, "nang");
  EXPECT_EQ(deck.sections[1].entries[0].line, 8);
}

void expect_parse_error(const std::string& text, const std::string& needle) {
  try {
    (void)snap::read_deck_text(text, "t.inp");
    FAIL() << "expected InvalidInput containing: " << needle;
  } catch (const InvalidInput& err) {
    EXPECT_NE(std::string(err.what()).find(needle), std::string::npos)
        << "got: " << err.what();
  }
}

TEST(DeckParser, GoldenErrorMessages) {
  expect_parse_error("x = 1\n", "t.inp:1:1: key before any [section] header");
  expect_parse_error("[mesh\n", "t.inp:1:1: malformed section header");
  expect_parse_error("[mesh]\nnonsense\n",
                     "t.inp:2:1: expected 'key = value'");
  expect_parse_error("[mesh]\ntwist =\n", "t.inp:2:7: empty value");
  expect_parse_error("[mesh]\n[other]\n[mesh]\n",
                     "t.inp:3:1: section [mesh] already opened at line 1");
  expect_parse_error("[mesh]\n = 3\n", "t.inp:2:2: empty key");
}

TEST(DeckParser, TypedAccessors) {
  const snap::DeckFile deck = snap::read_deck_text(
      "[s]\n"
      "i = 42\n"
      "d = 2.5\n"
      "neg = -inf\n"
      "b = on\n"
      "list = 1 -2.5 inf\n",
      "t.inp");
  const auto& e = deck.sections[0].entries;
  EXPECT_EQ(snap::entry_int(deck, e[0]), 42);
  EXPECT_EQ(snap::entry_double(deck, e[1]), 2.5);
  EXPECT_EQ(snap::entry_double(deck, e[2]),
            -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(snap::entry_bool(deck, e[3]));
  const std::vector<double> list = snap::entry_doubles(deck, e[4]);
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], 1.0);
  EXPECT_EQ(list[1], -2.5);
  EXPECT_EQ(list[2], std::numeric_limits<double>::infinity());
}

// --- RunConfig binding ----------------------------------------------------

void expect_bind_error(const std::string& text, const std::string& needle) {
  try {
    (void)api::read_deck_text(text, "t.inp");
    FAIL() << "expected InvalidInput containing: " << needle;
  } catch (const InvalidInput& err) {
    EXPECT_NE(std::string(err.what()).find(needle), std::string::npos)
        << "got: " << err.what();
  }
}

TEST(DeckBinding, GoldenMalformedDeckMessages) {
  // Unknown section, with the header's line number.
  expect_bind_error("[mesh]\ndims = 4 4 4\n\n[materialz]\nng = 2\n",
                    "t.inp:4: unknown section [materialz]");
  // Unknown key, with its line number.
  expect_bind_error("[mesh]\ntwists = 0.5\n",
                    "t.inp:2: unknown key 'twists' in [mesh]");
  // Duplicate scalar key, naming both lines.
  expect_bind_error("[angular]\nnang = 4\nnmom = 1\nnang = 8\n",
                    "t.inp:4: duplicate key 'nang' in [angular] (first at "
                    "line 2)");
  // Bad enum value, with line and value column.
  expect_bind_error("[execution]\nlayout = eag\n",
                    "t.inp:2:10: unknown layout 'eag'");
  expect_bind_error("[execution]\npreassembly = lu\n",
                    "t.inp:2:15: unknown preassembly mode 'lu'");
  expect_bind_error("[execution]\npreassembly = factored-lu\n",
                    "t.inp:2:15: unknown preassembly mode 'factored-lu'");
  expect_bind_error("[mesh]\ncycles = lag-greedy\n",
                    "t.inp:2:10: unknown cycle strategy 'lag-greedy' "
                    "(expected abort or lag-scc)");
  expect_bind_error("[run]\nmode = schedules\n",
                    "t.inp:2:8: unknown run mode 'schedules'");
  // Type mismatches, with line and value column.
  expect_bind_error("[angular]\nnang = four\n",
                    "t.inp:2:8: key 'nang': 'four' is not an integer");
  expect_bind_error("[mesh]\ntwist = 0.5 rad\n",
                    "t.inp:2:9: key 'twist': expected one value");
  expect_bind_error("[iteration]\nfixed_iterations = yes\n",
                    "t.inp:2:20: key 'fixed_iterations': 'yes' is not a "
                    "boolean");
  // Malformed region lists.
  expect_bind_error("[materials]\nsigt = 1 2\nscattering = 0 0\n"
                    "region = 1 0 1 0 1\n",
                    "t.inp:4:10: material region needs 7 values");
  expect_bind_error("[materials]\nsigt = 1 2\nscattering = 0 0\n"
                    "region = 1 1 0 -inf inf -inf inf\n",
                    "t.inp:4:10: region box bounds must satisfy lo < hi");
  // Semantic validation failures carry the deck name.
  expect_bind_error("[materials]\nsigt = 1 2\nscattering = 0.5\n",
                    "t.inp: materials: sigt lists 2 materials but "
                    "scattering lists 1");
  expect_bind_error("[materials]\nregion = 0 -inf inf -inf inf -inf inf\n",
                    "t.inp: materials: region/scattering lists need a sigt "
                    "list");
  // Non-finite cross sections are refused before the sweep meets them as
  // a non-finite pivot.
  expect_bind_error("[materials]\nsigt = 1 inf\nscattering = 0 0\n",
                    "t.inp: materials: sigt entries must be positive and "
                    "finite");
  expect_bind_error("[materials]\nsigt = nan 1\nscattering = 0 0\n",
                    "t.inp: materials: sigt entries must be positive and "
                    "finite");
  expect_bind_error("[materials]\nsigt = 1 1\nscattering = 0 nan\n",
                    "t.inp: materials: scattering ratios must be in [0, 1)");
  expect_bind_error("[materials]\nsigt = 1 1\nscattering = inf 0\n",
                    "t.inp: materials: scattering ratios must be in [0, 1)");
  expect_bind_error("[decomposition]\npx = 2\n"
                    "[execution]\npreassembly = explicit-inverse\n",
                    "t.inp: execution: preassembly requires a single-domain "
                    "run");
  // Over-decomposition (more rank blocks than cells on an axis) is caught
  // at deck validation with the deck named, not deep in the partitioner.
  expect_bind_error("[mesh]\ndims = 8 8 4\n[decomposition]\npz = 5\n",
                    "t.inp: decomposition: pz = 5 exceeds the 4 cells "
                    "along z");
  expect_bind_error("[mesh]\ndims = 4 8 8\n[decomposition]\npx = 9\n",
                    "t.inp: decomposition: px = 9 exceeds the 4 cells "
                    "along x");
  // Empty rank blocks.
  expect_bind_error("[decomposition]\npx = 0\n",
                    "t.inp: decomposition: px, py and pz must be positive");
  expect_bind_error("[decomposition]\npz = -1\n",
                    "t.inp: decomposition: px, py and pz must be positive");
}

TEST(DeckBinding, RejectBadFieldRangesAtDeckLevel) {
  // The flat deck's field ranges are checked when the deck is bound,
  // before any mesh is built.
  expect_bind_error("[mesh]\ndims = 0 4 4\n",
                    "t.inp: input: mesh dims must be positive");
  expect_bind_error("[mesh]\norder = 9\n",
                    "t.inp: input: element order must be in 1..8");
  expect_bind_error("[angular]\nnang = 0\n",
                    "t.inp: input: nang must be positive");
  expect_bind_error("[angular]\nnmom = 7\n",
                    "t.inp: input: nmom must be in 1..6");
  expect_bind_error("[materials]\nmat_opt = 3\n",
                    "t.inp: input: mat_opt must be 0, 1 or 2");
  expect_bind_error("[materials]\nscattering_ratio = 1\n",
                    "t.inp: input: scattering ratio must be in [0, 1)");
  expect_bind_error("[source]\nsrc_opt = -1\n",
                    "t.inp: input: src_opt must be 0, 1 or 2");
  expect_bind_error("[iteration]\nepsi = 0\n",
                    "t.inp: input: epsi must be positive");
  expect_bind_error("[iteration]\niitm = 0\n",
                    "t.inp: input: iteration limits must be >= 1");
  expect_bind_error("[execution]\nthreads = -1\n",
                    "t.inp: execution: threads: thread count must be >= 0");
}

TEST(DeckBinding, BoundarySidesAddressableByName) {
  using Bc = snap::Input::Bc;
  const snap::Input input =
      api::read_deck_text("[boundary]\n-z = reflective\n+y = reflective\n")
          .to_input();
  EXPECT_EQ(input.boundary[4], Bc::Reflective);
  EXPECT_EQ(input.boundary[3], Bc::Reflective);
  EXPECT_EQ(input.boundary[0], Bc::Vacuum);
  EXPECT_EQ(api::side_from_string("-z"), 4);
  EXPECT_THROW((void)api::side_from_string("+w"), InvalidInput);
  expect_bind_error("[boundary]\n+w = vacuum\n",
                    "t.inp:2: unknown key '+w' in [boundary]");
}

TEST(DeckBinding, ValidateMirrorsInputLevelRules) {
  // snap::Input's cross-field rule (reflective sides need a small twist)
  // surfaces through RunConfig::validate, so a config built in code and a
  // bound deck are both refused before any mesh is built.
  api::RunConfig config;
  config.mesh.twist = 0.2;
  config.boundary.sides.fill(snap::Input::Bc::Reflective);
  EXPECT_THROW(config.validate(), InvalidInput);
  expect_bind_error("[mesh]\ntwist = 0.2\n[boundary]\nall = reflective\n",
                    "t.inp: input: reflective boundaries require |twist| "
                    "<= 0.01");
}

TEST(DeckBinding, SigtRouteNmomMismatchRejected) {
  // The sigt route's cross sections are isotropic.
  api::RunConfig config;
  config.angular.nmom = 2;
  config.materials.sigt = {1.0};
  config.materials.scattering = {0.5};
  EXPECT_THROW(config.validate(), InvalidInput);
  expect_bind_error("[angular]\nnmom = 2\n"
                    "[materials]\nsigt = 1\nscattering = 0.5\n",
                    "t.inp: materials: custom cross sections carry 1 "
                    "scattering orders but the angular spec asks for 2");
}

TEST(DeckBinding, RegionMaterialOutOfRangeRejected) {
  // A region (or the default) naming a material the sigt lists do not
  // define is refused at validation, not when the problem data is built.
  api::RunConfig config;
  config.materials.sigt = {1.0};
  config.materials.scattering = {0.5};
  config.materials.regions = {{.material = 1}};
  EXPECT_THROW(config.validate(), InvalidInput);
  config.materials.regions.clear();
  config.materials.default_material = 1;
  EXPECT_THROW(config.validate(), InvalidInput);
  expect_bind_error("[materials]\nsigt = 1\nscattering = 0.5\n"
                    "region = 1 -inf inf -inf inf -inf 1\n",
                    "t.inp: materials: region material id 1 outside 0..0");
}

TEST(DeckBinding, RepeatedRegionsAllowed) {
  const api::RunConfig config = api::read_deck_text(
      "[materials]\n"
      "ng = 1\n"
      "sigt = 1 2 3\n"
      "scattering = 0 0.5 0.2\n"
      "region = 1 -inf inf -inf inf -inf 1\n"
      "region = 2 -inf inf -inf inf -inf 1.8\n");
  ASSERT_EQ(config.materials.regions.size(), 2u);
  EXPECT_EQ(config.materials.regions[0].material, 1);
  EXPECT_EQ(config.materials.regions[1].box.hi[2], 1.8);
  // First-match-wins over the open boxes.
  EXPECT_TRUE(config.materials.regions[0].box.contains({0.5, 0.5, 0.5}));
  EXPECT_FALSE(config.materials.regions[0].box.contains({0.5, 0.5, 1.0}));
}

TEST(DeckBinding, BoundarySides) {
  const api::RunConfig config = api::read_deck_text(
      "[mesh]\ntwist = 0.001\n"
      "[boundary]\nall = reflective\n+z = vacuum\n");
  using Bc = snap::Input::Bc;
  EXPECT_EQ(config.boundary.sides[0], Bc::Reflective);
  EXPECT_EQ(config.boundary.sides[5], Bc::Vacuum);
}

TEST(DeckBinding, EmptyDeckIsTheDefaultConfig) {
  EXPECT_TRUE(api::read_deck_text("") == api::RunConfig{});
}

// --- the [xs] section -----------------------------------------------------

std::string shipped_xs() {
  return std::string(UNSNAP_DECK_DIR) + "/xs/criticality.xs";
}

TEST(DeckBinding, XsLibraryAdoptsItsGroupCount) {
  // A deck without an explicit ng takes the library's group count; the
  // `material` key binds library names to deck material ids in order.
  const api::RunConfig config = api::read_deck_text(
      "[materials]\nmaterial = fuel water\ndefault_material = 1\n"
      "[xs]\nfile = " +
      shipped_xs() + "\n");
  EXPECT_EQ(config.materials.num_groups, 2);
  ASSERT_EQ(config.materials.material_names.size(), 2u);
  EXPECT_EQ(config.materials.material_names[0], "fuel");
  EXPECT_EQ(config.materials.material_names[1], "water");
  EXPECT_TRUE(config.xs.active());
}

TEST(DeckBinding, GoldenXsDeckMessages) {
  const std::string lib = shipped_xs();
  // An explicit ng that disagrees with the library is rejected at its
  // own line, naming both group counts.
  expect_bind_error(
      "[materials]\nng = 3\nmaterial = fuel\n[xs]\nfile = " + lib + "\n",
      "t.inp:2:6: ng = 3 disagrees with the [xs] library '" + lib +
          "', which carries 2 groups");
  // An unreadable library points at the `file =` entry.
  expect_bind_error("[xs]\nfile = /no/such/library.xs\n",
                    "t.inp:2:8: cannot open cross-section library "
                    "'/no/such/library.xs'");
  expect_bind_error("[xs]\nfile = " + lib + "\ngroupsets = 0:3\n",
                    "groupsets: range '0:3' outside groups 0..1");
  expect_bind_error("[xs]\nfilename = " + lib + "\n",
                    "t.inp:2: unknown key 'filename' in [xs]");
  // Route mixing and name binding failures.
  expect_bind_error("[materials]\nng = 2\nmaterial = fuel\n",
                    "t.inp: materials: material name bindings need an [xs] "
                    "library");
  expect_bind_error(
      "[materials]\nmaterial = plutonium\n[xs]\nfile = " + lib + "\n",
      "t.inp: materials: material 'plutonium' is not in the [xs] library");
  expect_bind_error(
      "[materials]\nsigt = 1 1\nscattering = 0 0\n[xs]\nfile = " + lib +
          "\n",
      "t.inp: materials: the custom sigt route and an [xs] library are "
      "mutually exclusive");
  // keff mode preconditions.
  expect_bind_error("[run]\nmode = keff\n",
                    "t.inp: keff: mode = keff needs an [xs] library");
  expect_bind_error("[run]\nmode = keff\n[materials]\nmaterial = fuel\n"
                    "[xs]\nfile = " +
                        lib +
                        "\n[source]\nregion = 1 -inf inf -inf inf -inf 1\n",
                    "t.inp: keff: k-eigenvalue runs are source-free");
}

TEST(DeckBinding, LibraryParserErrorsKeepTheirOwnLocation) {
  // A malformed library file fails with the library's path:line:column,
  // not the deck's — the deck only lent it the `file =` entry.
  const std::string path = ::testing::TempDir() + "truncated.xs";
  {
    std::ofstream out(path);
    out << "groups 2\nmaterial m\nsigt 1\nend\n";
  }
  expect_bind_error("[xs]\nfile = " + path + "\n",
                    path + ":3:1: 'sigt' needs 2 values (got 1)");
}

TEST(DeckBinding, KeffNeedsFissionData) {
  const std::string path = ::testing::TempDir() + "inert.xs";
  {
    std::ofstream out(path);
    out << "groups 1\nmaterial iron\nsigt 1.0\nsigs 0.3\nend\n";
  }
  expect_bind_error("[run]\nmode = keff\n[xs]\nfile = " + path + "\n",
                    "keff: the [xs] library '" + path +
                        "' carries no fission data (nu_sigf)");
}

TEST(DeckBinding, KeffDefaultsToAdaptiveInners) {
  // Without the key a keff deck converges its power iteration; every
  // other mode keeps the paper's fixed-work timing setup. The default is
  // resolved after the whole deck is read, so section order is free.
  const std::string keff = "[materials]\nmaterial = fuel water\n"
                           "default_material = 1\n[xs]\nfile = " +
                           shipped_xs() + "\n[run]\nmode = keff\n";
  const api::RunConfig adaptive = api::read_deck_text(keff);
  EXPECT_FALSE(adaptive.iteration.fixed_iterations);
  const api::RunConfig fixed =
      api::read_deck_text(keff + "[iteration]\nfixed_iterations = true\n");
  EXPECT_TRUE(fixed.iteration.fixed_iterations);
  for (const char* mode : {"solve", "mms", "time"})
    EXPECT_TRUE(api::read_deck_text(std::string("[run]\nmode = ") + mode +
                                    "\n")
                    .iteration.fixed_iterations)
        << mode;
  // write_deck carries the resolved value, so a normalised deck rereads
  // to the same config.
  for (const api::RunConfig& config : {adaptive, fixed}) {
    const std::string text = api::write_deck(config);
    const api::RunConfig reread = api::read_deck_text(text);
    EXPECT_TRUE(reread == config);
    EXPECT_EQ(api::write_deck(reread), text);
  }
}

// --- round-trips ----------------------------------------------------------

TEST(DeckRoundTrip, DefaultConfig) {
  const api::RunConfig config;
  const std::string text = api::write_deck(config);
  EXPECT_TRUE(api::read_deck_text(text) == config);
}

TEST(DeckRoundTrip, CustomEverything) {
  api::RunConfig config;
  config.title = "bespoke run";
  config.mode = api::RunMode::Time;
  config.mesh = {.dims = {5, 4, 3},
                 .extent = {2.0, 1.0, 0.5},
                 .twist = 0.01 / 3.0,  // not representable in short decimal
                                       // (and small enough for reflection)
                 .shuffle_seed = 123456789012345ull,
                 .order = 3,
                 .validate = true,
                 .cycle_strategy = sweep::CycleStrategy::LagScc};
  config.angular = {.nang = 6,
                    .quadrature = angular::QuadratureKind::Product,
                    .nmom = 2};
  config.materials.num_groups = 2;
  config.boundary.sides[2] = snap::Input::Bc::Reflective;
  config.iteration = {.epsi = 1e-7,
                      .iitm = 33,
                      .oitm = 7,
                      .fixed_iterations = false,
                      .scheme = snap::IterationScheme::Gmres,
                      .gmres_restart = 11,
                      .gmres_max_iters = 44};
  config.execution.layout = snap::FluxLayout::AngleGroupElement;
  // 1 (not the default 0) so the round trip exercises the key while
  // staying within any machine's hardware-thread validation limit.
  config.execution.num_threads = 1;
  config.execution.preassembly = snap::PreassemblyMode::ExplicitInverse;
  config.time = {.dt = 0.125, .steps = 5, .initial = 2.0,
                 .zero_source = false};
  config.output.verbose = true;

  const std::string text = api::write_deck(config);
  const api::RunConfig reread = api::read_deck_text(text);
  EXPECT_TRUE(reread == config);
  // Write -> read -> write is a fixed point.
  EXPECT_EQ(api::write_deck(reread), text);
}

TEST(DeckRoundTrip, XsAndKeffConfig) {
  api::RunConfig config;
  config.mode = api::RunMode::Keff;
  config.materials.num_groups = 2;
  config.materials.material_names = {"fuel", "water"};
  config.materials.default_material = 1;
  config.xs.file = shipped_xs();
  config.xs.groupsets = "0,1";
  config.xs.k_tol = 2e-7;
  config.xs.fission_tol = 3e-6;
  config.xs.max_outers = 42;
  config.xs.extrapolate = true;
  config.validate();

  const std::string text = api::write_deck(config);
  const api::RunConfig reread = api::read_deck_text(text);
  EXPECT_TRUE(reread == config);
  EXPECT_EQ(api::write_deck(reread), text);
}

TEST(DeckRoundTrip, WriteRejectsUnencodableText) {
  // '#'/'!'/newlines start comments / break lines on the read side, so
  // writing them would silently violate read(write(cfg)) == cfg.
  api::RunConfig config;
  config.title = "variant # 2";
  EXPECT_THROW((void)api::write_deck(config), InvalidInput);
  config.title = "trailing space ";
  EXPECT_THROW((void)api::write_deck(config), InvalidInput);
  config.title = "two\nlines";
  EXPECT_THROW((void)api::write_deck(config), InvalidInput);
  config.title = "fine title, c = 0.99";
  EXPECT_NO_THROW((void)api::write_deck(config));
}

TEST(DeckRoundTrip, EveryShippedDeckBitIdentically) {
  namespace fs = std::filesystem;
  std::vector<fs::path> decks;
  for (const char* dir : {UNSNAP_DECK_DIR, UNSNAP_DECK_DIR "/golden"})
    for (const fs::directory_entry& entry : fs::directory_iterator(dir))
      if (entry.path().extension() == ".inp") decks.push_back(entry.path());
  ASSERT_GE(decks.size(), 25u);  // 12 scenario decks + 13 golden decks

  for (const fs::path& path : decks) {
    SCOPED_TRACE(path.string());
    const api::RunConfig config = api::read_deck_file(path.string());
    config.validate();
    const std::string text = api::write_deck(config);
    const api::RunConfig reread = api::read_deck_text(text, path.string());
    EXPECT_TRUE(reread == config);
    EXPECT_EQ(api::write_deck(reread), text);
  }
}

}  // namespace
}  // namespace unsnap
