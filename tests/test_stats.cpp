#include "celect/util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace celect {
namespace {

TEST(Summary, EmptyDefaults) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Summary, SingleValue) {
  Summary s;
  s.Add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Summary, KnownMeanAndVariance) {
  Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 denominator: 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.sum(), 40.0, 1e-12);
}

TEST(Summary, MergeMatchesSequential) {
  Summary all, a, b;
  for (int i = 0; i < 100; ++i) {
    double v = std::sin(i) * 10;
    all.Add(v);
    (i % 2 ? a : b).Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(Summary, MergeWithEmpty) {
  Summary a, empty;
  a.Add(1.0);
  a.Add(3.0);
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2u);
  Summary b;
  b.Merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(FitPowerLaw, RecoversExactExponent) {
  std::vector<double> xs, ys;
  for (double x : {2.0, 4.0, 8.0, 16.0, 32.0, 64.0}) {
    xs.push_back(x);
    ys.push_back(3.5 * std::pow(x, 1.7));
  }
  auto fit = FitPowerLaw(xs, ys);
  EXPECT_TRUE(fit.valid);
  EXPECT_NEAR(fit.alpha, 1.7, 1e-9);
  EXPECT_NEAR(fit.constant, 3.5, 1e-6);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(FitPowerLaw, AllEqualAbscissaIsInvalid) {
  // Every x identical: the log-log regression has zero x-variance, so no
  // exponent is identifiable. Used to silently divide by zero.
  std::vector<double> xs{8, 8, 8, 8}, ys{1, 2, 3, 4};
  auto fit = FitPowerLaw(xs, ys);
  EXPECT_FALSE(fit.valid);
}

TEST(FitPowerLaw, ConstantOrdinateHasHonestRSquared) {
  // ys carry no variance (ss_tot == 0). A constant model fits perfectly,
  // so r² must report 1, not NaN from 0/0.
  std::vector<double> xs{2, 4, 8, 16}, ys{5, 5, 5, 5};
  auto fit = FitPowerLaw(xs, ys);
  EXPECT_TRUE(fit.valid);
  EXPECT_NEAR(fit.alpha, 0.0, 1e-12);
  EXPECT_NEAR(fit.constant, 5.0, 1e-9);
  EXPECT_DOUBLE_EQ(fit.r_squared, 1.0);
  EXPECT_FALSE(std::isnan(fit.r_squared));
}

TEST(FitPowerLaw, LinearDataHasAlphaOne) {
  std::vector<double> xs{10, 20, 40, 80}, ys{30, 60, 120, 240};
  auto fit = FitPowerLaw(xs, ys);
  EXPECT_NEAR(fit.alpha, 1.0, 1e-9);
}

TEST(FitPowerLaw, QuadraticDataHasAlphaTwo) {
  std::vector<double> xs{4, 8, 16, 32}, ys;
  for (double x : xs) ys.push_back(0.5 * x * x);
  auto fit = FitPowerLaw(xs, ys);
  EXPECT_NEAR(fit.alpha, 2.0, 1e-9);
}

TEST(FitLogSlope, RecoversSlope) {
  std::vector<double> xs{2, 4, 8, 16, 32}, ys;
  for (double x : xs) ys.push_back(7.0 + 3.0 * std::log2(x));
  EXPECT_NEAR(FitLogSlope(xs, ys), 3.0, 1e-9);
}

TEST(FitLogSlope, FlatDataHasZeroSlope) {
  std::vector<double> xs{2, 4, 8, 16}, ys{5, 5, 5, 5};
  EXPECT_NEAR(FitLogSlope(xs, ys), 0.0, 1e-12);
}

TEST(BoundConstant, FindsWorstRatio) {
  std::vector<double> xs{10, 20, 30}, ys{25, 44, 90};
  double c = BoundConstant(xs, ys, [](double x) { return x; });
  EXPECT_NEAR(c, 3.0, 1e-12);  // 90/30
}

}  // namespace
}  // namespace celect
