#include "celect/util/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "celect/util/check.h"

namespace celect {

void Summary::Add(double x) {
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void Summary::Merge(const Summary& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  double n1 = static_cast<double>(count_);
  double n2 = static_cast<double>(other.count_);
  double delta = other.mean_ - mean_;
  double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Summary::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double Summary::stddev() const { return std::sqrt(variance()); }

std::string Summary::ToString() const {
  std::ostringstream os;
  os << "n=" << count_ << " mean=" << mean() << " sd=" << stddev()
     << " min=" << min() << " max=" << max();
  return os.str();
}

PowerLawFit FitPowerLaw(const std::vector<double>& xs,
                        const std::vector<double>& ys) {
  CELECT_CHECK(xs.size() == ys.size());
  CELECT_CHECK(xs.size() >= 2) << "need at least two points to fit";
  std::size_t n = xs.size();
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    CELECT_CHECK(xs[i] > 0 && ys[i] > 0) << "power-law fit needs positives";
    double lx = std::log(xs[i]);
    double ly = std::log(ys[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
    syy += ly * ly;
  }
  double dn = static_cast<double>(n);
  double denom = dn * sxx - sx * sx;
  PowerLawFit fit;
  // Degenerate abscissa (all xs equal): no slope is identifiable. Leave
  // valid = false so callers can tell this apart from a real fit.
  if (denom == 0) return fit;
  fit.valid = true;
  fit.alpha = (dn * sxy - sx * sy) / denom;
  fit.constant = std::exp((sy - fit.alpha * sx) / dn);
  double ss_tot = syy - sy * sy / dn;
  double ss_res = 0;
  for (std::size_t i = 0; i < n; ++i) {
    double pred = std::log(fit.constant) + fit.alpha * std::log(xs[i]);
    double resid = std::log(ys[i]) - pred;
    ss_res += resid * resid;
  }
  if (ss_tot > 0) {
    fit.r_squared = 1.0 - ss_res / ss_tot;
  } else {
    // Zero total variance: the fit explains the data only if the
    // residuals are zero too (up to rounding); don't report a perfect
    // r^2 just because the denominator vanished.
    fit.r_squared = ss_res <= 1e-12 ? 1.0 : 0.0;
  }
  return fit;
}

double FitLogSlope(const std::vector<double>& xs,
                   const std::vector<double>& ys) {
  CELECT_CHECK(xs.size() == ys.size());
  CELECT_CHECK(xs.size() >= 2);
  std::size_t n = xs.size();
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    CELECT_CHECK(xs[i] > 0);
    double lx = std::log2(xs[i]);
    sx += lx;
    sy += ys[i];
    sxx += lx * lx;
    sxy += lx * ys[i];
  }
  double dn = static_cast<double>(n);
  double denom = dn * sxx - sx * sx;
  if (denom == 0) return 0.0;
  return (dn * sxy - sx * sy) / denom;
}

double BoundConstant(const std::vector<double>& xs,
                     const std::vector<double>& ys, double (*f)(double)) {
  CELECT_CHECK(xs.size() == ys.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    double b = f(xs[i]);
    CELECT_CHECK(b > 0) << "bound function must be positive";
    worst = std::max(worst, ys[i] / b);
  }
  return worst;
}

}  // namespace celect
