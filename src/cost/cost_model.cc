#include "src/cost/cost_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

namespace skymr::cost {
namespace {

double PowD(double base, size_t exp) {
  double result = 1.0;
  for (size_t i = 0; i < exp; ++i) {
    result *= base;
  }
  return result;
}

}  // namespace

double RemainingPartitions(uint32_t ppd, size_t dim) {
  const auto n = static_cast<double>(ppd);
  return PowD(n, dim) - PowD(n - 1.0, dim);
}

double PartitionComparisons(const uint32_t* coords_1based, size_t dim) {
  double product = 1.0;
  for (size_t k = 0; k < dim; ++k) {
    assert(coords_1based[k] >= 1);
    product *= static_cast<double>(coords_1based[k]);
  }
  return product - 1.0;
}

double KappaFullGrid(uint32_t ppd, size_t dim) {
  // sum over all cells of (prod coords - 1) = B^d - n^d, B = n(n+1)/2.
  const auto n = static_cast<double>(ppd);
  const double b = n * (n + 1.0) / 2.0;
  return PowD(b, dim) - PowD(n, dim);
}

double KappaSurface(uint32_t ppd, size_t dim, size_t surface) {
  assert(surface >= 1 && surface <= dim);
  if (dim == 1) {
    // A 1-d grid has a single "surface" cell at coordinate 1, which has no
    // anti-dominating region.
    return 0.0;
  }
  const auto n = static_cast<double>(ppd);
  const double b = n * (n + 1.0) / 2.0;  // sum_{i=1..n} i
  const double a = b - 1.0;              // sum_{i=2..n} i
  // Surface `surface` fixes one coordinate at 1 (factor 1 in the product);
  // the remaining d-1 running indexes contribute, with the first
  // surface-1 of them starting at 2 to discount overlap with earlier
  // surfaces. The subtracted term is the matching sum of the constant 1.
  return PowD(a, surface - 1) * PowD(b, dim - surface) -
         PowD(n - 1.0, surface - 1) * PowD(n, dim - surface);
}

double KappaSurfaceLiteral(uint32_t ppd, size_t dim, size_t surface) {
  assert(surface >= 1 && surface <= dim);
  if (dim == 1) {
    return 0.0;
  }
  // d-1 running indexes i_1..i_{d-1}; the first (surface-1) run over
  // [2, n], the rest over [1, n]. Summand: prod(i_k) - 1 (the fixed
  // surface coordinate contributes a factor of 1).
  const size_t free_dims = dim - 1;
  std::vector<uint32_t> idx(free_dims);
  for (size_t k = 0; k < free_dims; ++k) {
    idx[k] = k < surface - 1 ? 2 : 1;
  }
  for (size_t k = 0; k < free_dims; ++k) {
    if (idx[k] > ppd) {
      return 0.0;  // Empty range (ppd < 2 with a shifted index).
    }
  }
  double total = 0.0;
  while (true) {
    double product = 1.0;
    for (size_t k = 0; k < free_dims; ++k) {
      product *= static_cast<double>(idx[k]);
    }
    total += product - 1.0;
    // Odometer increment.
    size_t k = 0;
    while (k < free_dims) {
      if (idx[k] < ppd) {
        ++idx[k];
        break;
      }
      idx[k] = k < surface - 1 ? 2 : 1;
      ++k;
    }
    if (k == free_dims) {
      break;
    }
  }
  return total;
}

double MapperCost(uint32_t ppd, size_t dim) {
  double total = 0.0;
  for (size_t j = 1; j <= dim; ++j) {
    total += KappaSurface(ppd, dim, j);
  }
  return total;
}

double ReducerCost(uint32_t ppd, size_t dim) {
  return KappaSurface(ppd, dim, 1);
}

namespace {

/// p_r(n) = sum_{i=1..n} i^-r. Summed directly up to kDirect; beyond it
/// the tail sum_{i=kDirect+1..n} f(i) is the Euler-Maclaurin integral
/// plus the endpoint and first-derivative corrections, whose error is
/// O(f'''(kDirect)) ~ 1e-10 relative.
double PowerSum(uint64_t n, size_t r) {
  constexpr uint64_t kDirect = 64;
  const auto f = [r](double x) { return std::pow(x, -static_cast<double>(r)); };
  double sum = 0.0;
  for (uint64_t i = 1; i <= std::min(n, kDirect); ++i) {
    sum += f(static_cast<double>(i));
  }
  if (n <= kDirect) {
    return sum;
  }
  const auto a = static_cast<double>(kDirect);
  const auto b = static_cast<double>(n);
  const double integral =
      r == 1 ? std::log(b / a)
             : (std::pow(a, 1.0 - static_cast<double>(r)) -
                std::pow(b, 1.0 - static_cast<double>(r))) /
                   (static_cast<double>(r) - 1.0);
  const auto df = [r](double x) {
    return -static_cast<double>(r) * std::pow(x, -static_cast<double>(r) - 1.0);
  };
  // sum_{i=a..b} f(i) ~ integral + (f(a) + f(b)) / 2 + (f'(b) - f'(a)) / 12;
  // f(a) is already in the direct part, so take it back out.
  return sum + integral + (f(b) - f(a)) / 2.0 + (df(b) - df(a)) / 12.0;
}

}  // namespace

double ExpectedMaxima(double n, size_t dim) {
  if (dim <= 1) {
    return 1.0;
  }
  const uint64_t count =
      n < 1.5 ? 1 : static_cast<uint64_t>(std::llround(n));
  // Newton's identities for the complete homogeneous polynomials:
  // k h_k = sum_{r=1..k} p_r h_{k-r}, h_0 = 1. Every term is positive, so
  // the recursion is stable.
  const size_t degree = dim - 1;
  std::vector<double> power(degree + 1, 0.0);
  for (size_t r = 1; r <= degree; ++r) {
    power[r] = PowerSum(count, r);
  }
  std::vector<double> h(degree + 1, 0.0);
  h[0] = 1.0;
  for (size_t k = 1; k <= degree; ++k) {
    double acc = 0.0;
    for (size_t r = 1; r <= k; ++r) {
      acc += power[r] * h[k - r];
    }
    h[k] = acc / static_cast<double>(k);
  }
  // The skyline never exceeds the point count; the clamp only absorbs
  // rounding.
  return std::min(h[degree], static_cast<double>(count));
}

double ExpectedMaximaLiteral(uint64_t n, size_t dim) {
  if (dim <= 1 || n == 0) {
    return n == 0 ? 0.0 : 1.0;
  }
  // running[k] = H(i, k + 1) after step i.
  std::vector<double> running(dim, 0.0);
  for (uint64_t i = 1; i <= n; ++i) {
    running[0] = 1.0;
    for (size_t k = 1; k < dim; ++k) {
      running[k] += running[k - 1] / static_cast<double>(i);
    }
  }
  return running[dim - 1];
}

}  // namespace skymr::cost
