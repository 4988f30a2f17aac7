#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>

#include "linalg/blas_like.hpp"
#include "linalg/gauss_elim.hpp"
#include "linalg/invert.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/solver.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace unsnap::linalg {
namespace {

// Diagonally dominated random system: well conditioned at every size used
// by the element orders (8..216), mimicking the transport matrices.
Matrix random_system(int n, Rng& rng, double dominance = 2.0) {
  Matrix a(n, n);
  for (int i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (int j = 0; j < n; ++j) {
      a(i, j) = rng.uniform(-1.0, 1.0);
      row_sum += std::fabs(a(i, j));
    }
    a(i, i) += dominance * row_sum;
  }
  return a;
}

std::vector<double> random_vector(int n, Rng& rng) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.uniform(-2.0, 2.0);
  return v;
}

double residual_norm(const Matrix& a, const std::vector<double>& x,
                     const std::vector<double>& b) {
  std::vector<double> ax(b.size());
  matvec(a.view(), x, ax);
  double r = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i)
    r = std::max(r, std::fabs(ax[i] - b[i]));
  return r;
}

TEST(Matvec, IdentityIsNoop) {
  Matrix eye(3, 3);
  for (int i = 0; i < 3; ++i) eye(i, i) = 1.0;
  std::vector<double> x{1.0, -2.0, 3.0}, y(3);
  matvec(eye.view(), x, y);
  for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(y[i], x[i]);
}

TEST(Matmul, AccumulatesProduct) {
  Matrix a(2, 3), b(3, 2), c(2, 2);
  int v = 1;
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 3; ++j) a(i, j) = v++;
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 2; ++j) b(i, j) = v++;
  c(0, 0) = 100.0;  // must accumulate, not overwrite
  matmul_accumulate(a.view(), b.view(), c.view());
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12].
  EXPECT_DOUBLE_EQ(c(0, 0), 100.0 + 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(MatrixView, BlockSharesStorage) {
  Matrix a(4, 4);
  MatrixView blk = a.view().block(1, 2, 2, 2);
  blk(0, 0) = 5.0;
  EXPECT_DOUBLE_EQ(a(1, 2), 5.0);
  EXPECT_EQ(blk.row_stride(), 4);
}

// ---- solver property sweeps over system sizes --------------------------

class SolverSizes : public ::testing::TestWithParam<int> {};

TEST_P(SolverSizes, GaussSolveSmallResidual) {
  const int n = GetParam();
  Rng rng(100 + n);
  const Matrix a0 = random_system(n, rng);
  const std::vector<double> b0 = random_vector(n, rng);
  Matrix a = a0;
  std::vector<double> x = b0;
  gauss_solve(a.view(), x);
  EXPECT_LT(residual_norm(a0, x, b0), 1e-9 * n);
}

TEST_P(SolverSizes, GaussNoPivotMatchesPivoted) {
  const int n = GetParam();
  Rng rng(200 + n);
  const Matrix a0 = random_system(n, rng, 4.0);  // strongly dominant
  const std::vector<double> b0 = random_vector(n, rng);
  Matrix a1 = a0, a2 = a0;
  std::vector<double> x1 = b0, x2 = b0;
  gauss_solve(a1.view(), x1);
  gauss_solve_nopivot(a2.view(), x2);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-8);
}

TEST_P(SolverSizes, LapackLuMatchesGauss) {
  const int n = GetParam();
  Rng rng(300 + n);
  const Matrix a0 = random_system(n, rng);
  const std::vector<double> b0 = random_vector(n, rng);
  Matrix a1 = a0, a2 = a0;
  std::vector<double> x1 = b0, x2 = b0;
  std::vector<int> piv(static_cast<std::size_t>(n));
  gauss_solve(a1.view(), x1);
  lapack_style_solve(a2.view(), x2, piv);
  for (int i = 0; i < n; ++i)
    EXPECT_NEAR(x1[i], x2[i], 1e-9 * (1.0 + std::fabs(x1[i])));
}

TEST_P(SolverSizes, BlockedMatchesUnblockedFactor) {
  const int n = GetParam();
  Rng rng(400 + n);
  Matrix a1 = random_system(n, rng);
  Matrix a2 = a1;
  std::vector<int> p1(static_cast<std::size_t>(n)),
      p2(static_cast<std::size_t>(n));
  lu_factor(a1.view(), p1);            // blocked path for n >= threshold
  lu_factor_unblocked(a2.view(), p2);  // reference
  EXPECT_EQ(p1, p2);  // identical pivot choices
  EXPECT_LT(max_abs_diff(a1.view(), a2.view()), 1e-10);
}

TEST_P(SolverSizes, InverseTimesMatrixIsIdentity) {
  const int n = GetParam();
  Rng rng(500 + n);
  const Matrix a0 = random_system(n, rng);
  Matrix scratch = a0;
  Matrix inv(n, n);
  std::vector<int> piv(static_cast<std::size_t>(n));
  invert(scratch.view(), inv.view(), piv);
  Matrix prod(n, n);
  matmul_accumulate(inv.view(), a0.view(), prod.view());
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-8);
}

// Sizes matching the element orders of Table I (8, 27, 64, 125, 216) plus
// awkward ones around the blocked-LU panel boundary.
INSTANTIATE_TEST_SUITE_P(TableOneSizes, SolverSizes,
                         ::testing::Values(1, 2, 3, 5, 8, 23, 24, 25, 27, 47,
                                           48, 49, 64, 125, 216));

// ---- pivoting and failure handling -------------------------------------

TEST(GaussSolve, RequiresPivotingOnZeroDiagonal) {
  // [[0, 1], [1, 0]] x = [2, 3] has solution [3, 2] but a zero leading
  // diagonal: the pivoted solver succeeds, the unpivoted one must throw.
  Matrix a(2, 2);
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  Matrix a2 = a;
  std::vector<double> b{2.0, 3.0};
  std::vector<double> b2 = b;
  gauss_solve(a.view(), b);
  EXPECT_DOUBLE_EQ(b[0], 3.0);
  EXPECT_DOUBLE_EQ(b[1], 2.0);
  EXPECT_THROW(gauss_solve_nopivot(a2.view(), b2), NumericalError);
}

TEST(GaussSolve, SingularMatrixThrows) {
  Matrix a(3, 3);
  for (int j = 0; j < 3; ++j) {
    a(0, j) = 1.0;
    a(1, j) = 2.0;  // row 1 = 2 * row 0 -> singular
    a(2, j) = j;
  }
  std::vector<double> b{1.0, 2.0, 3.0};
  EXPECT_THROW(gauss_solve(a.view(), b), NumericalError);
}

TEST(LapackLu, SingularMatrixThrows) {
  Matrix a(4, 4);  // all zeros
  std::vector<double> b(4, 1.0);
  std::vector<int> piv(4);
  EXPECT_THROW(lapack_style_solve(a.view(), b, piv), NumericalError);
}

TEST(LapackLu, PermutationMatrixSolvedExactly) {
  // Pure permutation exercises the pivot bookkeeping with no arithmetic.
  const int n = 5;
  Matrix a(n, n);
  const int perm[n] = {3, 0, 4, 1, 2};
  for (int i = 0; i < n; ++i) a(i, perm[i]) = 1.0;
  std::vector<double> b{10, 20, 30, 40, 50};
  std::vector<int> piv(n);
  lapack_style_solve(a.view(), b, piv);
  for (int i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(b[perm[i]], 10.0 * (i + 1));
}

TEST(LuFactorSolve, ReusableFactorisation) {
  const int n = 20;
  Rng rng(99);
  const Matrix a0 = random_system(n, rng);
  Matrix lu = a0;
  std::vector<int> piv(static_cast<std::size_t>(n));
  lu_factor(lu.view(), piv);
  for (int trial = 0; trial < 4; ++trial) {
    const std::vector<double> b0 = random_vector(n, rng);
    std::vector<double> x = b0;
    lu_solve_factored(lu.view(), piv, x);
    EXPECT_LT(residual_norm(a0, x, b0), 1e-10 * n);
  }
}

// ---- fixed extent (N = 8) against the dynamic extent ---------------------

// A diagonally dominant 8 x 8 system with its rows reversed: the largest
// entry of each column starts off the diagonal, so partial pivoting has to
// swap rows.
Matrix pivot_forcing_system(Rng& rng) {
  const Matrix dominant = random_system(8, rng);
  Matrix a(8, 8);
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j) a(i, j) = dominant(7 - i, j);
  return a;
}

void expect_relative_match(std::span<const double> fixed,
                           std::span<const double> dynamic) {
  ASSERT_EQ(fixed.size(), dynamic.size());
  double scale = 0.0;
  for (const double v : dynamic) scale = std::max(scale, std::fabs(v));
  for (std::size_t i = 0; i < fixed.size(); ++i)
    EXPECT_NEAR(fixed[i], dynamic[i], 1e-14 * scale) << "entry " << i;
}

class FixedExtent : public ::testing::TestWithParam<bool> {
 protected:
  // The parameter selects pivot-forcing systems over dominant ones.
  Matrix system(Rng& rng) const {
    return GetParam() ? pivot_forcing_system(rng) : random_system(8, rng);
  }
};

TEST_P(FixedExtent, EliminationMatchesDynamic) {
  Rng rng(GetParam() ? 810 : 800);
  for (int trial = 0; trial < 16; ++trial) {
    const Matrix a0 = system(rng);
    const std::vector<double> b0 = random_vector(8, rng);
    for (const auto kind :
         {SolverKind::GaussianElimination, SolverKind::LapackLu}) {
      SCOPED_TRACE(to_string(kind));
      Matrix a8 = a0, ad = a0;
      std::vector<double> x8 = b0, xd = b0;
      SolveWorkspace ws;
      solve_in_place<8>(kind, a8.view(), x8, ws);
      solve_in_place(kind, ad.view(), xd, ws);
      expect_relative_match(x8, xd);
      EXPECT_LT(residual_norm(a0, x8, b0), 1e-12);
    }
  }
}

TEST_P(FixedExtent, InverseMatchesDynamic) {
  Rng rng(GetParam() ? 830 : 820);
  for (int trial = 0; trial < 16; ++trial) {
    const Matrix a0 = system(rng);
    Matrix a8 = a0, ad = a0, inv8(8, 8), invd(8, 8);
    std::vector<int> piv(8);
    invert<8>(a8.view(), inv8.view(), piv);
    invert(ad.view(), invd.view(), piv);
    expect_relative_match({inv8.data(), 64}, {invd.data(), 64});
    Matrix prod(8, 8);
    matmul_accumulate(inv8.view(), a0.view(), prod.view());
    for (int i = 0; i < 8; ++i)
      for (int j = 0; j < 8; ++j)
        EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(DominantAndPivotForcing, FixedExtent,
                         ::testing::Bool());

// The message of the NumericalError `solve` throws.
template <typename F>
std::string numerical_error_text(F&& solve) {
  try {
    solve();
  } catch (const NumericalError& err) {
    return err.what();
  }
  return "no NumericalError";
}

TEST(FixedExtentErrors, SingularThrowsTheDynamicText) {
  // Column 3 is zero, and elimination keeps it exactly zero: every
  // solver meets a zero pivot at column 3.
  Rng rng(840);
  Matrix a0 = random_system(8, rng);
  for (int i = 0; i < 8; ++i) a0(i, 3) = 0.0;
  const std::vector<double> b0 = random_vector(8, rng);
  for (const auto kind :
       {SolverKind::GaussianElimination, SolverKind::GaussianEliminationNoPivot,
        SolverKind::LapackLu}) {
    SCOPED_TRACE(to_string(kind));
    const auto run = [&](auto extent_tag) {
      Matrix a = a0;
      std::vector<double> x = b0;
      SolveWorkspace ws;
      return numerical_error_text([&] {
        solve_in_place<decltype(extent_tag)::value>(kind, a.view(), x, ws);
      });
    };
    const std::string fixed = run(std::integral_constant<int, 8>{});
    EXPECT_NE(fixed.find("zero pivot at column 3"), std::string::npos)
        << fixed;
    EXPECT_EQ(fixed, run(std::integral_constant<int, kDynamic>{}));
  }
  const auto inverse_error = [&](auto extent_tag) {
    Matrix a = a0, inv(8, 8);
    std::vector<int> piv(8);
    return numerical_error_text([&] {
      invert<decltype(extent_tag)::value>(a.view(), inv.view(), piv);
    });
  };
  const std::string fixed = inverse_error(std::integral_constant<int, 8>{});
  EXPECT_NE(fixed.find("zero pivot at column 3"), std::string::npos) << fixed;
  EXPECT_EQ(fixed, inverse_error(std::integral_constant<int, kDynamic>{}));

  // A non-finite pivot throws the same text at either extent.
  Matrix inf8 = a0;
  inf8(0, 0) = std::numeric_limits<double>::infinity();
  Matrix infd = inf8;
  std::vector<double> x8 = b0, xd = b0;
  const std::string inf_text =
      numerical_error_text([&] { gauss_solve<8>(inf8.view(), x8); });
  EXPECT_NE(inf_text.find("zero pivot at column 0"), std::string::npos)
      << inf_text;
  EXPECT_EQ(inf_text,
            numerical_error_text([&] { gauss_solve(infd.view(), xd); }));
}

// ---- lockstep lanes against the scalar kernel -----------------------------

// The bit pattern of a double, so NaN and signed zeros compare exactly.
std::uint64_t bits(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

// Systems for lanes 0..a.size()-1 of a lane block.
struct LaneSystems {
  std::vector<Matrix> a;
  std::vector<std::vector<double>> b;

  void add(Matrix m, std::vector<double> rhs) {
    a.push_back(std::move(m));
    b.push_back(std::move(rhs));
  }
  [[nodiscard]] int lanes() const { return static_cast<int>(a.size()); }
};

// The systems packed into the lanes of a block.
LaneBlock pack_lanes(const LaneSystems& systems) {
  LaneBlock block(8);
  for (int l = 0; l < systems.lanes(); ++l)
    for (int i = 0; i < 8; ++i) {
      block.b()[i * kLanes + l] = systems.b[l][i];
      for (int j = 0; j < 8; ++j)
        block.a()[(i * 8 + j) * kLanes + l] = systems.a[l](i, j);
    }
  return block;
}

// Pack the systems into a block, solve them in lockstep, and require every
// lane's solution to be bitwise the scalar kernel's on the same system.
// Returns what gauss_solve_lanes returned (false: it fell back).
bool expect_lanes_match_scalar(const LaneSystems& systems, bool pivot) {
  LaneBlock block = pack_lanes(systems);
  const bool lockstep = gauss_solve_lanes<8>(block, systems.lanes(), pivot);
  for (int l = 0; l < systems.lanes(); ++l) {
    Matrix a = systems.a[l];
    std::vector<double> x = systems.b[l];
    if (pivot)
      gauss_solve<8>(a.view(), x);
    else
      gauss_solve_nopivot<8>(a.view(), x);
    for (int i = 0; i < 8; ++i)
      EXPECT_EQ(bits(block.x()[i * kLanes + l]), bits(x[i]))
          << "lane " << l << " of " << systems.lanes() << ", entry " << i
          << ": " << block.x()[i * kLanes + l] << " vs " << x[i];
  }
  return lockstep;
}

TEST(LaneSolve, EveryLaneCountMatchesTheScalarKernelBitwise) {
  Rng rng(850);
  for (const bool pivot : {true, false}) {
    for (int lanes = 1; lanes <= kLanes; ++lanes) {
      SCOPED_TRACE(std::to_string(lanes) + " lanes, pivot " +
                   std::to_string(pivot));
      for (int trial = 0; trial < 8; ++trial) {
        LaneSystems systems;
        for (int l = 0; l < lanes; ++l)
          systems.add(random_system(8, rng), random_vector(8, rng));
        EXPECT_TRUE(expect_lanes_match_scalar(systems, pivot));
      }
      // A non-finite right-hand side flows through every lane exactly as
      // it does through the scalar kernel.
      LaneSystems systems;
      for (int l = 0; l < lanes; ++l) {
        std::vector<double> b = random_vector(8, rng);
        b[static_cast<std::size_t>(l % 8)] =
            l % 2 == 0 ? std::numeric_limits<double>::infinity()
                       : -std::numeric_limits<double>::infinity();
        systems.add(random_system(8, rng), std::move(b));
      }
      EXPECT_TRUE(expect_lanes_match_scalar(systems, pivot));
    }
  }
}

// An anti-diagonal permutation: every diagonal entry is zero, so only a
// pivoting solve succeeds (the 8 x 8 cousin of
// GaussSolve.RequiresPivotingOnZeroDiagonal).
Matrix anti_diagonal() {
  Matrix a(8, 8);
  for (int i = 0; i < 8; ++i) a(i, 7 - i) = 1.0 + i;
  return a;
}

TEST(LaneSolve, PivotingOrZeroMultiplierLaneFallsBackBitwise) {
  Rng rng(860);
  Matrix zero_multiplier = random_system(8, rng);
  zero_multiplier(5, 0) = 0.0;  // the scalar kernel skips this row update
  for (const Matrix& odd : {anti_diagonal(), pivot_forcing_system(rng),
                            zero_multiplier}) {
    for (const int lane : {0, 3, kLanes - 1}) {
      SCOPED_TRACE("odd lane " + std::to_string(lane));
      LaneSystems systems;
      for (int l = 0; l < kLanes; ++l)
        systems.add(l == lane ? odd : random_system(8, rng),
                    random_vector(8, rng));
      EXPECT_FALSE(expect_lanes_match_scalar(systems, /*pivot=*/true));
    }
  }
  // Without pivoting the permutation's zero pivot is the scalar error.
  LaneSystems systems;
  for (int l = 0; l < kLanes; ++l)
    systems.add(l == 2 ? anti_diagonal() : random_system(8, rng),
                random_vector(8, rng));
  EXPECT_THROW(expect_lanes_match_scalar(systems, /*pivot=*/false),
               NumericalError);
}

// The lockstep kernel tests its bail conditions once per block, from
// per-lane accumulators; a NaN or an infinity must trip them in exactly
// the cases where the scalar kernel throws or pivots, wherever the odd
// lane sits. The scalar kernel's verdict on the odd system alone is the
// reference: its error text, or a bitwise-equal solution.
TEST(LaneSolve, NonFinitePivotLaneBailsExactlyWhereTheScalarKernelDoes) {
  Rng rng(880);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Odd {
    int row, col;
    double value;
  };
  // NaN and infinite pivots at column 0 and, reached through elimination,
  // at column 3; an infinity below the pivot (the pivoting search moves it
  // up, the unpivoted one carries it down).
  for (const Odd odd : {Odd{0, 0, nan}, Odd{0, 0, inf}, Odd{3, 3, nan},
                        Odd{3, 3, -inf}, Odd{5, 0, inf}}) {
    Matrix system = random_system(8, rng);
    system(odd.row, odd.col) = odd.value;
    for (const bool pivot : {true, false}) {
      Matrix a = system;
      std::vector<double> x = random_vector(8, rng);
      const std::string scalar = numerical_error_text([&] {
        if (pivot)
          gauss_solve<8>(a.view(), x);
        else
          gauss_solve_nopivot<8>(a.view(), x);
      });
      ASSERT_NE(scalar.find("zero pivot at column"), std::string::npos)
          << scalar;
      for (const int lane : {0, 3, kLanes - 1}) {
        SCOPED_TRACE("entry (" + std::to_string(odd.row) + ", " +
                     std::to_string(odd.col) + ") = " +
                     std::to_string(odd.value) + " in lane " +
                     std::to_string(lane) + ", pivot " +
                     std::to_string(pivot));
        LaneSystems systems;
        for (int l = 0; l < kLanes; ++l)
          systems.add(l == lane ? system : random_system(8, rng),
                      random_vector(8, rng));
        // Only a fallback throws: a lockstep pass that missed the odd
        // lane would return its NaNs quietly.
        LaneBlock block = pack_lanes(systems);
        EXPECT_EQ(numerical_error_text(
                      [&] { gauss_solve_lanes<8>(block, kLanes, pivot); }),
                  scalar);
      }
    }
  }

  // The boundary cases the scalar kernel does not branch on stay in
  // lockstep: a row below the pivot of equal magnitude (no swap) and a
  // subnormal but nonzero multiplier. A negative-zero multiplier is a row
  // the scalar kernel skips, so it must fall back.
  Matrix tie = random_system(8, rng);
  tie(4, 0) = -tie(0, 0);
  Matrix subnormal = random_system(8, rng);
  subnormal(6, 0) = 1e-309 * subnormal(0, 0);  // multiplier ~1e-309
  Matrix negative_zero = random_system(8, rng);
  negative_zero(2, 0) = -0.0;
  for (const int lane : {0, 3, kLanes - 1}) {
    for (const bool pivot : {true, false}) {
      SCOPED_TRACE("odd lane " + std::to_string(lane) + ", pivot " +
                   std::to_string(pivot));
      for (const Matrix* odd : {&tie, &subnormal}) {
        LaneSystems systems;
        for (int l = 0; l < kLanes; ++l)
          systems.add(l == lane ? *odd : random_system(8, rng),
                      random_vector(8, rng));
        EXPECT_TRUE(expect_lanes_match_scalar(systems, pivot));
      }
      LaneSystems systems;
      for (int l = 0; l < kLanes; ++l)
        systems.add(l == lane ? negative_zero : random_system(8, rng),
                    random_vector(8, rng));
      EXPECT_FALSE(expect_lanes_match_scalar(systems, pivot));
    }
  }
}

TEST(LaneSolve, SingularLaneThrowsTheScalarText) {
  // Column 3 of one lane is zero: the scalar kernel meets a zero pivot at
  // column 3 with or without pivoting, and so must the block, whichever
  // lane holds it and however many lanes are in use.
  Rng rng(870);
  Matrix singular = random_system(8, rng);
  for (int i = 0; i < 8; ++i) singular(i, 3) = 0.0;
  for (const bool pivot : {true, false}) {
    Matrix a = singular;
    std::vector<double> x = random_vector(8, rng);
    const std::string scalar = numerical_error_text([&] {
      if (pivot)
        gauss_solve<8>(a.view(), x);
      else
        gauss_solve_nopivot<8>(a.view(), x);
    });
    ASSERT_EQ(scalar, "gauss_solve: zero pivot at column 3");
    for (const int lanes : {1, 5, kLanes}) {
      LaneBlock block(8);
      for (int l = 0; l < lanes; ++l) {
        const Matrix m = l == lanes - 1 ? singular : random_system(8, rng);
        for (int t = 0; t < 64; ++t) block.a()[t * kLanes + l] = m.data()[t];
        for (int i = 0; i < 8; ++i) block.b()[i * kLanes + l] = 1.0;
      }
      EXPECT_EQ(numerical_error_text(
                    [&] { gauss_solve_lanes<8>(block, lanes, pivot); }),
                scalar)
          << lanes << " lanes, pivot " << pivot;
    }
  }
}

TEST(SolverDispatch, AllKindsAgree) {
  const int n = 27;
  Rng rng(7);
  const Matrix a0 = random_system(n, rng, 4.0);
  const std::vector<double> b0 = random_vector(n, rng);
  SolveWorkspace ws;
  std::vector<std::vector<double>> solutions;
  for (const auto kind :
       {SolverKind::GaussianElimination, SolverKind::GaussianEliminationNoPivot,
        SolverKind::LapackLu}) {
    Matrix a = a0;
    std::vector<double> x = b0;
    solve_in_place(kind, a.view(), x, ws);
    solutions.push_back(std::move(x));
  }
  for (std::size_t k = 1; k < solutions.size(); ++k)
    for (int i = 0; i < n; ++i)
      EXPECT_NEAR(solutions[0][i], solutions[k][i], 1e-9);
}

TEST(SolverDispatch, NamesRoundTrip) {
  for (const auto kind :
       {SolverKind::GaussianElimination, SolverKind::GaussianEliminationNoPivot,
        SolverKind::LapackLu})
    EXPECT_EQ(solver_from_string(to_string(kind)), kind);
  EXPECT_EQ(solver_from_string("mkl"), SolverKind::LapackLu);
  EXPECT_THROW((void)solver_from_string("cholesky"), InvalidInput);
}

TEST(Flops, PaperSolveCostFormula) {
  // Paper §II-C: dgesv costs 0.67 N^3, over 300 FLOPs at N = 8.
  EXPECT_GT(flops_lu_solve(8), 300.0);
  EXPECT_NEAR(flops_lu_solve(100) / 1e6, 0.6867, 0.01);
}

// ---- level-1 kernels behind the matrix-free Krylov solvers ---------------

TEST(BlasLike, DotAndNormOnEmptyVectors) {
  EXPECT_EQ(dot({}, {}), 0.0);
  EXPECT_EQ(norm2({}), 0.0);
}

TEST(BlasLike, AxpyAndScalOnEmptyVectorsAreNoops) {
  std::vector<double> empty;
  EXPECT_NO_THROW(axpy(2.0, empty, empty));
  EXPECT_NO_THROW(scal(2.0, empty));
}

TEST(BlasLike, LengthOneVectors) {
  const std::vector<double> x{3.0};
  std::vector<double> y{-2.0};
  EXPECT_DOUBLE_EQ(dot(x, y), -6.0);
  EXPECT_DOUBLE_EQ(norm2(x), 3.0);
  axpy(2.0, x, y);  // y = -2 + 2 * 3
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  scal(-0.5, y);
  EXPECT_DOUBLE_EQ(y[0], -2.0);
}

TEST(BlasLike, KnownValues) {
  const std::vector<double> x{1.0, -2.0, 3.0, -4.0};
  std::vector<double> y{0.5, 0.5, 0.5, 0.5};
  EXPECT_DOUBLE_EQ(dot(x, x), 30.0);
  EXPECT_DOUBLE_EQ(norm2(x), std::sqrt(30.0));
  EXPECT_DOUBLE_EQ(dot(x, y), -1.0);
  axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 2.5);
  EXPECT_DOUBLE_EQ(y[3], -7.5);
  scal(2.0, y);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
}

}  // namespace
}  // namespace unsnap::linalg
