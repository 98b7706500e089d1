#include "checks.h"

#include <algorithm>
#include <cmath>

namespace e2ebench {

NormalEquations ComputeNormalEquations(const double* x, const double* y,
                                       int64_t n, int64_t m) {
  NormalEquations ne;
  ne.m = m;
  ne.gram.assign(static_cast<size_t>(m * m), 0.0);
  ne.xty.assign(static_cast<size_t>(m), 0.0);
  // Upper triangle by rank-1 row updates, then mirrored.
  for (int64_t r = 0; r < n; ++r) {
    const double* row = x + r * m;
    for (int64_t i = 0; i < m; ++i) {
      const double xi = row[i];
      double* g = ne.gram.data() + i * m;
      for (int64_t j = i; j < m; ++j) g[j] += xi * row[j];
      ne.xty[static_cast<size_t>(i)] += xi * y[r];
    }
  }
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < i; ++j) {
      ne.gram[static_cast<size_t>(i * m + j)] =
          ne.gram[static_cast<size_t>(j * m + i)];
    }
  }
  return ne;
}

double NormalEquationResidual(const NormalEquations& ne, const double* beta,
                              double lambda) {
  const int64_t m = ne.m;
  double res2 = 0.0;
  double rhs2 = 0.0;
  for (int64_t i = 0; i < m; ++i) {
    const double* g = ne.gram.data() + i * m;
    double acc = lambda * beta[i];
    for (int64_t j = 0; j < m; ++j) acc += g[j] * beta[j];
    const double b = ne.xty[static_cast<size_t>(i)];
    res2 += (acc - b) * (acc - b);
    rhs2 += b * b;
  }
  return rhs2 > 0 ? std::sqrt(res2 / rhs2) : std::sqrt(res2);
}

int64_t ArgMax1Based(const double* scores, int64_t k) {
  int64_t best = 0;
  for (int64_t j = 1; j < k; ++j) {
    if (scores[j] > scores[best]) best = j;
  }
  return best + 1;
}

bool ArgMaxAgrees(const double* scores, int64_t k, int64_t chosen,
                  double rel_tol) {
  if (chosen < 1 || chosen > k) return false;
  const double best = scores[ArgMax1Based(scores, k) - 1];
  const double got = scores[chosen - 1];
  return best - got <= rel_tol * std::max(1.0, std::fabs(best));
}

}  // namespace e2ebench
