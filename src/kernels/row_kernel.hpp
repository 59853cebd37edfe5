// The row kernel and its run-time ISA dispatch.
//
// update_row() is the library's innermost loop: one x-row of one split
// component in the complex-arithmetic form of the paper's Listings 1-2.
// The one loop (row_loop.hpp) is compiled once per ISA in its own unit and
// the best variant the CPU supports is picked once per process; every
// variant must be bit-exact with scalar (tests/simd_test.cpp is the gate).
// The per-ISA units include this header, so it must stay free of inline
// code and dynamic initialisation compiled with their target flags.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>

namespace emwd::kernels {

/// Parameters of one row update.  All pointers address interleaved doubles
/// and already point at the first complex cell of the row (x = x0).
struct RowArgs {
  double* x;             // component being updated (read-modify-write)
  const double* t;       // tX coefficient
  const double* c;       // cX coefficient
  const double* src;     // source term or nullptr
  const double* a;       // partner split part A at base index
  const double* b;       // partner split part B at base index
  std::ptrdiff_t shift;  // partner offset in complex cells (signed)
  double ds;             // diff_sign: +1 => (cur - shifted), -1 => (shifted - cur)
  int n;                 // complex cells in the row
};

using RowFn = void (*)(const RowArgs&) noexcept;

struct RowKernel {
  const char* name;  // "scalar", "avx2"; static, never dangles
  RowFn fn;
};

/// The variants compiled in that this CPU runs, "scalar" first, best last.
std::span<const RowKernel> row_kernels();

/// The variant every engine runs: row_kernels().back().
const RowKernel& row_kernel();

/// The static name of a dispatch-table variant spelled `name` (whether or
/// not this CPU can run it), or nullptr for an unknown name.
const char* kernel_isa_name(std::string_view name) noexcept;

/// X[p] = t[p]*X[p] (+ src[p]) - c[p] * (ds*(A[p]-A[p+shift]) + ds*(B[p]-B[p+shift]))
/// with full complex arithmetic (22 flops/cell with src, 20 without),
/// through the dispatched variant.
void update_row(const RowArgs& args) noexcept;

}  // namespace emwd::kernels
