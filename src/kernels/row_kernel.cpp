// The scalar variant (baseline target) and the dispatch table.  CMake
// announces each row_kernel_<isa>.cpp it compiles with EMWD_ROW_KERNEL_<ISA>.
#include "kernels/row_loop.hpp"

#include <vector>

namespace emwd::kernels {

#if defined(EMWD_ROW_KERNEL_AVX2)
void update_row_avx2(const RowArgs& args) noexcept;
#endif

namespace {

void update_row_scalar(const RowArgs& args) noexcept { row_entry(args); }

struct Variant {
  RowKernel kernel;
  bool (*cpu_has)();
};

// Ascending preference.  An entry may only be added once tests/simd_test.cpp
// proves it bit-exact with scalar.
const Variant kVariants[] = {
    {{"scalar", &update_row_scalar}, [] { return true; }},
#if defined(EMWD_ROW_KERNEL_AVX2)
    {{"avx2", &update_row_avx2},
     [] {
       __builtin_cpu_init();
       return __builtin_cpu_supports("avx2") != 0;
     }},
#endif
};

}  // namespace

std::span<const RowKernel> row_kernels() {
  static const std::vector<RowKernel> supported = [] {
    std::vector<RowKernel> out;
    for (const Variant& v : kVariants) {
      if (v.cpu_has()) out.push_back(v.kernel);
    }
    return out;
  }();
  return supported;
}

const RowKernel& row_kernel() {
  static const RowKernel& chosen = row_kernels().back();
  return chosen;
}

const char* kernel_isa_name(std::string_view name) noexcept {
  for (const Variant& v : kVariants) {
    if (name == v.kernel.name) return v.kernel.name;
  }
  return nullptr;
}

void update_row(const RowArgs& args) noexcept { row_kernel().fn(args); }

}  // namespace emwd::kernels
