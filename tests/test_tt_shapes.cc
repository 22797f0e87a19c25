// TT shape algebra: factorization, parameter counts vs the paper's Table 2,
// mixed-radix row digits, validation failures.
#include <gtest/gtest.h>

#include <numeric>
#include <ostream>
#include <vector>

#include "tensor/check.h"
#include "tt/tt_shapes.h"

namespace ttrec {
namespace {

TEST(FactorizeRows, CoversAndIsBalanced) {
  for (int64_t n : {1, 7, 100, 12345, 10131227, 40790948}) {
    for (int d : {2, 3, 4}) {
      const auto f = FactorizeRows(n, d);
      ASSERT_EQ(static_cast<int>(f.size()), d);
      int64_t prod = 1;
      for (int64_t x : f) prod *= x;
      EXPECT_GE(prod, n) << "n=" << n << " d=" << d;
      // Balanced: max/min ratio stays small.
      EXPECT_LE(f.back(), 2 * f.front() + 2) << "n=" << n << " d=" << d;
      // Sorted ascending.
      EXPECT_TRUE(std::is_sorted(f.begin(), f.end()));
      // Not wastefully large: product less than n * max_factor.
      EXPECT_LT(prod, (n + 1) * (f.back() + 1));
    }
  }
}

TEST(FactorizeCols, ExactProduct) {
  for (int64_t n : {16, 32, 64, 128, 12, 60}) {
    for (int d : {2, 3, 4}) {
      const auto f = FactorizeCols(n, d);
      ASSERT_EQ(static_cast<int>(f.size()), d);
      int64_t prod = 1;
      for (int64_t x : f) prod *= x;
      EXPECT_EQ(prod, n) << "n=" << n << " d=" << d;
    }
  }
}

TEST(FactorizeCols, Emb16ThreeCores) {
  // The paper's Table 2 column factors for dim 16 are (2, 2, 4).
  const auto f = FactorizeCols(16, 3);
  EXPECT_EQ(f, (std::vector<int64_t>{2, 2, 4}));
}

TEST(FactorizeCols, PrimeWithTrailingOnes) {
  const auto f = FactorizeCols(7, 3);
  int64_t prod = 1;
  for (int64_t x : f) prod *= x;
  EXPECT_EQ(prod, 7);
}

TEST(TtShape, RowDigitsRoundTrip) {
  TtShape s = MakeTtShape(1000, 16, 3, 8);
  for (int64_t row : {int64_t{0}, int64_t{1}, int64_t{499}, int64_t{999}}) {
    const auto digits = s.RowDigits(row);
    EXPECT_EQ(s.RowFromDigits(digits), row);
  }
  EXPECT_THROW(s.RowDigits(-1), IndexError);
  EXPECT_THROW(s.RowDigits(1000), IndexError);
}

TEST(TtShape, ParamCountFormula) {
  TtShape s = MakeTtShapeExplicit(10131227, 16, {200, 220, 250}, {2, 2, 4}, 16);
  // Matches the paper Table 2 row 1, R = 16: 135040 parameters.
  EXPECT_EQ(s.CoreParams(0), 1 * 200 * 2 * 16);
  EXPECT_EQ(s.CoreParams(1), 16 * 220 * 2 * 16);
  EXPECT_EQ(s.CoreParams(2), 16 * 250 * 4 * 1);
  EXPECT_EQ(s.TotalParams(), 135040);
  // Memory reduction ~1200x as in Table 2.
  EXPECT_NEAR(s.CompressionRatio(), 1200.0, 1.0);
}

// All 7 Kaggle tables from the paper's Table 2, all three ranks: parameter
// counts and memory reductions must match the published numbers.
struct Table2Row {
  int64_t rows;
  std::vector<int64_t> row_factors;
  int64_t rank;
  int64_t params;
  int64_t reduction;  // paper rounds down
};

// gtest_discover_tests puts the printed parameter into each CTest name. The
// default printer dumps the struct's bytes, row_factors' heap pointer
// included, so the names would change with every build.
void PrintTo(const Table2Row& row, std::ostream* os) {
  *os << "rows" << row.rows << "_rank" << row.rank;
}

class PaperTable2 : public ::testing::TestWithParam<Table2Row> {};

TEST_P(PaperTable2, MatchesPublishedNumbers) {
  const Table2Row& row = GetParam();
  TtShape s = MakeTtShapeExplicit(row.rows, 16, row.row_factors, {2, 2, 4},
                                  row.rank);
  EXPECT_EQ(s.TotalParams(), row.params);
  EXPECT_EQ(static_cast<int64_t>(s.CompressionRatio()), row.reduction);
}

INSTANTIATE_TEST_SUITE_P(
    KaggleTables, PaperTable2,
    ::testing::Values(
        Table2Row{10131227, {200, 220, 250}, 16, 135040, 1200},
        Table2Row{10131227, {200, 220, 250}, 32, 495360, 327},
        Table2Row{10131227, {200, 220, 250}, 64, 1891840, 85},
        Table2Row{8351593, {200, 200, 209}, 16, 122176, 1093},
        Table2Row{8351593, {200, 200, 209}, 32, 449152, 297},
        Table2Row{7046547, {200, 200, 200}, 16, 121600, 927},
        Table2Row{7046547, {200, 200, 200}, 64, 1715200, 65},
        Table2Row{5461306, {166, 175, 188}, 32, 393088, 222},
        Table2Row{2202608, {125, 130, 136}, 16, 79264, 444},
        Table2Row{286181, {53, 72, 75}, 32, 160448, 28},
        Table2Row{142572, {50, 52, 55}, 64, 446464, 5}));

TEST(TtShape, ValidationFailures) {
  // Col product mismatch.
  EXPECT_THROW(MakeTtShapeExplicit(100, 16, {5, 5, 5}, {2, 2, 2}, 4),
               ConfigError);
  // Row product too small.
  EXPECT_THROW(MakeTtShapeExplicit(1000, 16, {5, 5, 5}, {2, 2, 4}, 4),
               ConfigError);
  // Bad rank.
  EXPECT_THROW(MakeTtShape(100, 16, 3, 0), ConfigError);
  // Single core not allowed.
  TtShape s;
  s.num_rows = 10;
  s.emb_dim = 4;
  s.row_factors = {10};
  s.col_factors = {4};
  s.ranks = {1, 1};
  EXPECT_THROW(s.Validate(), ConfigError);
}

TEST(TtShape, CompressionGrowsWithRowsShrinksWithRank) {
  const double c_small = MakeTtShape(100000, 16, 3, 32).CompressionRatio();
  const double c_large = MakeTtShape(10000000, 16, 3, 32).CompressionRatio();
  EXPECT_GT(c_large, c_small);
  const double c_r8 = MakeTtShape(10000000, 16, 3, 8).CompressionRatio();
  const double c_r64 = MakeTtShape(10000000, 16, 3, 64).CompressionRatio();
  EXPECT_GT(c_r8, c_r64);
}

TEST(TtShape, ToStringMentionsShape) {
  TtShape s = MakeTtShape(1000, 16, 3, 8);
  const std::string str = s.ToString();
  EXPECT_NE(str.find("1000x16"), std::string::npos);
  EXPECT_NE(str.find("reduction"), std::string::npos);
}

}  // namespace
}  // namespace ttrec
