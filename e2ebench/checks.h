// Output checks the benchmark computes with its own loops, so a wrong
// result from the system cannot grade itself as correct.
#ifndef E2EBENCH_CHECKS_H_
#define E2EBENCH_CHECKS_H_

#include <cstdint>
#include <vector>

namespace e2ebench {

/// Normal equations of a ridge regression: G = t(X) X (m x m, row-major)
/// and b = t(X) y, accumulated in plain loops over a row-major n x m X.
struct NormalEquations {
  int64_t m = 0;
  std::vector<double> gram;
  std::vector<double> xty;
};
NormalEquations ComputeNormalEquations(const double* x, const double* y,
                                       int64_t n, int64_t m);

/// Relative residual ||(G + lambda I) beta - b|| / ||b|| of a solution
/// beta (length m) of the regularized normal equations.
double NormalEquationResidual(const NormalEquations& ne, const double* beta,
                              double lambda);

/// 1-based index of the largest of `scores[0..k)` (first on ties).
int64_t ArgMax1Based(const double* scores, int64_t k);

/// True if `chosen` (1-based) is the argmax of `scores`, accepting a
/// different index only when its score is within `rel_tol` of the maximum
/// (a near-tie that summation order may legitimately flip).
bool ArgMaxAgrees(const double* scores, int64_t k, int64_t chosen,
                  double rel_tol = 1e-9);

}  // namespace e2ebench

#endif  // E2EBENCH_CHECKS_H_
