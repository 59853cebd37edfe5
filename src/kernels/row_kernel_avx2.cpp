// The AVX2 variant of the row kernel: the same loop, compiled with -mavx2
// and without FMA (see CMakeLists.txt), so it stays bit-exact with scalar.
#include "kernels/row_loop.hpp"

namespace emwd::kernels {

void update_row_avx2(const RowArgs& args) noexcept { row_entry(args); }

}  // namespace emwd::kernels
