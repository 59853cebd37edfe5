// The THIIM component-update kernels: per-row wrappers around the
// dispatched row kernel (kernels/row_kernel.hpp).
#pragma once

#include <cstddef>

#include "grid/fieldset.hpp"
#include "kernels/components.hpp"
#include "kernels/row_kernel.hpp"

namespace emwd::kernels {

/// Convenience wrapper: updates component `comp` for the x-range [x0, x1)
/// of row (j, k) of `fs`.  Resolves arrays, shift offset and diff sign from
/// the component table.  Under XBoundary::Periodic, the x-shift components
/// peel the wrap-around cell (x = 0 for Ĥ, x = nx-1 for Ê) and read the
/// partner values from the opposite domain edge — the paper's Sec. VI
/// scheme.  The wrapped reads target the *other* field's previous
/// half-step values, so tiling and thread splits stay race-free unchanged.
void update_comp_row(grid::FieldSet& fs, Comp comp, int x0, int x1, int j, int k);

/// The same through an explicit row-kernel variant (one of row_kernels()),
/// so tests can step a scene with each variant in turn.
void update_comp_row(grid::FieldSet& fs, Comp comp, int x0, int x1, int j, int k,
                     RowFn kernel);

/// One cell with an explicit partner-read x position (the peeled iteration).
void update_cell_wrapped(grid::FieldSet& fs, Comp comp, int i, int i_partner, int j,
                         int k);

/// Offset in complex cells of a component's shifted partner read.
std::ptrdiff_t shift_offset(const grid::Layout& layout, Comp comp);

}  // namespace emwd::kernels
