#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>

#include "util/aligned.hpp"
#include "util/cli.hpp"
#include "util/ndarray.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace unsnap {
namespace {

TEST(NDArray, RowMajorStrides) {
  NDArray<double, 3> a({2, 3, 4});
  EXPECT_EQ(a.size(), 24u);
  EXPECT_EQ(a.stride(0), 12u);
  EXPECT_EQ(a.stride(1), 4u);
  EXPECT_EQ(a.stride(2), 1u);
}

TEST(NDArray, OffsetMatchesIndexing) {
  NDArray<int, 3> a({3, 5, 7});
  int counter = 0;
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 5; ++j)
      for (std::size_t k = 0; k < 7; ++k) a(i, j, k) = counter++;
  // Row-major means the flat order equals the loop order above.
  for (std::size_t f = 0; f < a.size(); ++f)
    EXPECT_EQ(a.data()[f], static_cast<int>(f));
}

TEST(NDArray, ExtentReorderChangesStrides) {
  // The layout experiments depend on this: same logical data, different
  // extent order, different memory distance between logical neighbours.
  NDArray<double, 2> eg({10, 4});  // [element][group]
  NDArray<double, 2> ge({4, 10});  // [group][element]
  EXPECT_EQ(eg.stride(0), 4u);
  EXPECT_EQ(ge.stride(1), 1u);
  EXPECT_EQ(ge.stride(0), 10u);
}

TEST(NDArray, FillAndResize) {
  NDArray<double, 2> a({2, 2}, 7.0);
  EXPECT_DOUBLE_EQ(a(1, 1), 7.0);
  a.resize({4, 4}, -1.0);
  EXPECT_EQ(a.size(), 16u);
  EXPECT_DOUBLE_EQ(a(3, 3), -1.0);
}

TEST(AlignedVector, SixtyFourByteAlignment) {
  for (int trial = 0; trial < 8; ++trial) {
    AlignedVector<double> v(17 + trial);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u);
  }
}

// Blocks on both sides of the direct-map cutoff, through both owners:
// each is 64-byte aligned, writable end to end, and released with the
// count it was allocated with (a mapped block handed to operator delete,
// or the reverse, aborts).
TEST(AlignedAllocator, BlocksAroundTheDirectMapCutoff) {
  const std::size_t cutoff = kDirectMapBytes / sizeof(double);
  for (const std::size_t count :
       {std::size_t{1}, cutoff - 1, cutoff, cutoff + 1, 3 * cutoff + 5}) {
    SCOPED_TRACE(count);
    AlignedVector<double> v(count, 1.0);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u);
    v.back() = 2.0;
    v.resize(2 * count, 3.0);  // moves the block across the cutoff
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u);
    EXPECT_EQ(v[count - 1], 2.0);
    EXPECT_EQ(v.back(), 3.0);

    AlignedArray<double> a = make_aligned_for_overwrite<double>(count);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.get()) % 64, 0u);
    for (std::size_t i = 0; i < count; ++i) a[i] = static_cast<double>(i);
    EXPECT_EQ(a[count - 1], static_cast<double>(count - 1));
    a = make_aligned_for_overwrite<double>(count + 1);  // frees the first
    a[count] = 1.0;
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, BelowCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Cli, ParsesEqualsAndSpaceForms) {
  Cli cli("prog", "test");
  cli.option("alpha", "1", "");
  cli.option("beta", "x", "");
  const char* argv[] = {"prog", "--alpha=3", "--beta", "hello"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_EQ(cli.get_int("alpha"), 3);
  EXPECT_EQ(cli.get("beta"), "hello");
}

TEST(Cli, DefaultsApply) {
  Cli cli("prog", "test");
  cli.option("gamma", "2.5", "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("gamma"), 2.5);
}

TEST(Cli, RejectsUnknownOption) {
  Cli cli("prog", "test");
  cli.option("known", "1", "");
  const char* argv[] = {"prog", "--unknown=2"};
  EXPECT_THROW(cli.parse(2, argv), InvalidInput);
}

TEST(Cli, FlagsAreBoolean) {
  Cli cli("prog", "test");
  cli.flag("verbose", "");
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(cli.get_flag("verbose"));
}

TEST(Cli, RejectsBadNumbers) {
  // Non-numbers, trailing characters and values outside int are refused,
  // not truncated or wrapped.
  const auto parsed = [](const char* value) {
    Cli cli("prog", "test");
    cli.option("n", "1", "");
    const char* argv[] = {"prog", "--n", value};
    EXPECT_TRUE(cli.parse(3, argv));
    return cli;
  };
  for (const char* value : {"abc", "", "3x", "4294967299", "-4294967299"})
    EXPECT_THROW((void)parsed(value).get_int("n"), InvalidInput) << value;
  for (const char* value : {"x", "", "1.5e", "2x"})
    EXPECT_THROW((void)parsed(value).get_double("n"), InvalidInput) << value;
  EXPECT_EQ(parsed("-7").get_int("n"), -7);
  EXPECT_EQ(parsed("2.5").get_double("n"), 2.5);
}

TEST(Table, RowWidthEnforced) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({1L}), InvalidInput);
  t.add_row({1L, 2.0});
  EXPECT_EQ(t.rows(), 1u);
}

TEST(Table, CsvRoundTrip) {
  Table t({"name", "value"});
  t.add_row({std::string("x"), 1.5});
  t.add_row({std::string("y"), 2.0});
  const std::string path = "/tmp/unsnap_test_table.csv";
  t.write_csv(path);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "name,value");
  std::getline(in, line);
  EXPECT_EQ(line, "x,1.5");
  std::remove(path.c_str());
}

TEST(Timer, AccumulatesAndCounts) {
  TimerRegistry registry;
  registry.add("a", 1.0);
  registry.add("a", 2.0);
  registry.add("b", 0.5);
  EXPECT_DOUBLE_EQ(registry.total("a"), 3.0);
  EXPECT_EQ(registry.count("a"), 2);
  EXPECT_DOUBLE_EQ(registry.total("missing"), 0.0);
  registry.reset();
  EXPECT_DOUBLE_EQ(registry.total("a"), 0.0);
}

TEST(Timer, StopwatchMonotone) {
  Stopwatch w;
  w.start();
  const double t1 = w.peek();
  const double t2 = w.stop();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  EXPECT_EQ(w.count(), 1);
}

TEST(Require, ThrowsInvalidInput) {
  EXPECT_NO_THROW(require(true, "fine"));
  EXPECT_THROW(require(false, "bad"), InvalidInput);
}

}  // namespace
}  // namespace unsnap
