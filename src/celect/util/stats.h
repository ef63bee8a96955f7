// Streaming summary statistics and least-squares growth-rate fitting.
//
// Bench harnesses use Summary to aggregate repeated trials and
// FitPowerLaw / FitLogSlope to check the growth *shape* of measured
// message/time curves against the paper's asymptotic claims.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace celect {

// Welford-style streaming mean/variance plus min/max.
class Summary {
 public:
  void Add(double x);
  void Merge(const Summary& other);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double sum() const { return mean_ * static_cast<double>(count_); }

  std::string ToString() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Result of fitting y = c * x^alpha by least squares in log-log space.
struct PowerLawFit {
  // False when the input was degenerate (all xs equal: the slope is
  // undefined). alpha/constant/r_squared are meaningless then.
  bool valid = false;
  double alpha = 0.0;      // fitted exponent
  double constant = 0.0;   // fitted c
  double r_squared = 0.0;  // goodness of fit in log-log space
};

// Fits y = c * x^alpha. Requires xs.size() == ys.size() >= 2 and all
// values strictly positive. Check `valid` before using the fit: inputs
// whose xs are all equal cannot determine an exponent. r_squared is
// 1 - ss_res/ss_tot; when the ys carry no variance (ss_tot == 0) it is
// 1 only if the residuals are also (numerically) zero, else 0.
PowerLawFit FitPowerLaw(const std::vector<double>& xs,
                        const std::vector<double>& ys);

// Fits y = a + b * log2(x); returns b. Used to recognise O(log N) curves.
double FitLogSlope(const std::vector<double>& xs,
                   const std::vector<double>& ys);

// Max over i of ys[i]/f(xs[i]) — the empirical constant for a claimed
// bound f. Requires equal sizes and f(x) > 0.
double BoundConstant(const std::vector<double>& xs,
                     const std::vector<double>& ys, double (*f)(double));

}  // namespace celect
