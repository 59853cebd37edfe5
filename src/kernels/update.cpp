#include "kernels/update.hpp"

namespace emwd::kernels {

std::ptrdiff_t shift_offset(const grid::Layout& layout, Comp comp) {
  const CompInfo& ci = info(comp);
  switch (ci.axis) {
    case Axis::X:
      return ci.shift * layout.stride_x();
    case Axis::Y:
      return ci.shift * layout.stride_y();
    case Axis::Z:
    default:
      return ci.shift * layout.stride_z();
  }
}

void update_cell_wrapped(grid::FieldSet& fs, Comp comp, int i, int i_partner, int j,
                         int k) {
  const CompInfo& ci = info(comp);
  const grid::Layout& layout = fs.layout();
  const std::size_t p = 2 * layout.at(i, j, k);
  const std::size_t q = 2 * layout.at(i_partner, j, k);

  double* x = fs.field(comp).data();
  const double* t = fs.coeff_t(comp).data();
  const double* c = fs.coeff_c(comp).data();
  const grid::Field* srcf = fs.source_for(comp);
  const double* a = fs.field(ci.partner_a).data();
  const double* b = fs.field(ci.partner_b).data();
  const double ds = static_cast<double>(ci.diff_sign);

  const double re = ds * (a[p] - a[q] + b[p] - b[q]);
  const double im = ds * (a[p + 1] - a[q + 1] + b[p + 1] - b[q + 1]);
  double xr = x[p] * t[p] - x[p + 1] * t[p + 1] - c[p] * re + c[p + 1] * im;
  double xi = x[p] * t[p + 1] + x[p + 1] * t[p] - c[p] * im - c[p + 1] * re;
  if (srcf != nullptr) {
    xr += srcf->data()[p];
    xi += srcf->data()[p + 1];
  }
  x[p] = xr;
  x[p + 1] = xi;
}

void update_comp_row(grid::FieldSet& fs, Comp comp, int x0, int x1, int j, int k) {
  update_comp_row(fs, comp, x0, x1, j, k, row_kernel().fn);
}

void update_comp_row(grid::FieldSet& fs, Comp comp, int x0, int x1, int j, int k,
                     RowFn kernel) {
  if (x1 <= x0) return;
  const CompInfo& ci = info(comp);
  const grid::Layout& layout = fs.layout();
  const int nx = layout.nx();

  // Periodic x: peel the wrap-around cell of the x-shift components.  The
  // Ĥ components read x-1 (wraps at x = 0 to nx-1); the Ê components read
  // x+1 (wraps at x = nx-1 to 0).
  if (fs.x_boundary() == grid::XBoundary::Periodic && ci.axis == Axis::X) {
    if (ci.shift < 0 && x0 == 0) {
      update_cell_wrapped(fs, comp, 0, nx - 1, j, k);
      ++x0;
    } else if (ci.shift > 0 && x1 == nx) {
      update_cell_wrapped(fs, comp, nx - 1, 0, j, k);
      --x1;
    }
    if (x1 <= x0) return;
  }

  const std::size_t base = layout.at(x0, j, k);

  RowArgs args;
  args.x = fs.field(comp).data() + 2 * base;
  args.t = fs.coeff_t(comp).data() + 2 * base;
  args.c = fs.coeff_c(comp).data() + 2 * base;
  const grid::Field* src = fs.source_for(comp);
  args.src = src ? src->data() + 2 * base : nullptr;
  args.a = fs.field(ci.partner_a).data() + 2 * base;
  args.b = fs.field(ci.partner_b).data() + 2 * base;
  args.shift = shift_offset(layout, comp);
  args.ds = static_cast<double>(ci.diff_sign);
  args.n = x1 - x0;
  kernel(args);
}

}  // namespace emwd::kernels
