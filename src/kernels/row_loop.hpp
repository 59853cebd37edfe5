// The row-kernel loop, included only by the per-ISA translation units
// (row_kernel.cpp, row_kernel_avx2.cpp).  Internal linkage on purpose: each
// unit gets its own copy compiled for its own target, and the linker can
// never fold an AVX2 copy into the scalar path.
#pragma once

#include "kernels/row_kernel.hpp"

namespace emwd::kernels {
namespace {

/// Core loop shared by the src / no-src variants.  `HasSrc` is a compile-time
/// switch so the no-source kernel carries no dead loads (paper Listing 2).
template <bool HasSrc>
inline void row_loop(const RowArgs& g) noexcept {
  double* __restrict x = g.x;
  const double* __restrict t = g.t;
  const double* __restrict c = g.c;
  const double* __restrict src = g.src;
  const double* __restrict a = g.a;
  const double* __restrict b = g.b;
  const double* __restrict as = g.a + 2 * g.shift;
  const double* __restrict bs = g.b + 2 * g.shift;
  const double ds = g.ds;
  const int n2 = 2 * g.n;

  for (int i = 0; i < n2; i += 2) {
    // Difference of the two partner split parts, base minus shifted (signed).
    const double re = ds * (a[i] - as[i] + b[i] - bs[i]);
    const double im = ds * (a[i + 1] - as[i + 1] + b[i + 1] - bs[i + 1]);
    // Complex X*t - c*(re + i*im) (+ Src), exactly as the paper's listings.
    double xr = x[i] * t[i] - x[i + 1] * t[i + 1] - c[i] * re + c[i + 1] * im;
    double xi = x[i] * t[i + 1] + x[i + 1] * t[i] - c[i] * im - c[i + 1] * re;
    if constexpr (HasSrc) {
      xr += src[i];
      xi += src[i + 1];
    }
    x[i] = xr;
    x[i + 1] = xi;
  }
}

inline void row_entry(const RowArgs& g) noexcept {
  if (g.src != nullptr) {
    row_loop<true>(g);
  } else {
    row_loop<false>(g);
  }
}

}  // namespace
}  // namespace emwd::kernels
