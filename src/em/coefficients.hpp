// THIIM update-coefficient construction (paper Eqs. 3-5).
//
// Discretizing the time-harmonic Maxwell iteration gives, per split
// component X with derivative axis d:
//
//   H:            (e^{i w tau/2} + tau*sigma*_d/mu) H^{n+1/2}
//                   = e^{-i w tau/2} H^{n-1/2} - (tau/mu) (curl E)_X + tau*S
//   E (forward):  (e^{i w tau}  + tau*sigma_d/eps) E^{n+1}
//                   = E^n + (tau/eps) e^{i w tau/2} (curl H)_X + tau*S
//   E (back, Re eps < 0, Eq. 5):
//                 (1 - tau*sigma_d/eps) E^{n+1}
//                   = e^{i w tau} E^n - (tau/eps) e^{i w tau/2} (curl H)_X - tau*S
//
// which maps exactly onto the kernel form  X = t*X + Src - c*diff  with the
// per-component diff signs from the component table.  t and c are complex
// per-cell arrays (the paper's tHyx/cHyx etc.); this module fills them from
// a material map + PML profiles, and also provides the synthetic coefficient
// sets the performance experiments use.
#pragma once

#include <complex>
#include <cstdint>

#include "em/material.hpp"
#include "em/pml.hpp"
#include "grid/fieldset.hpp"
#include "kernels/components.hpp"

namespace emwd::em {

struct ThiimParams {
  double omega = 0.2;  // angular frequency of the incident wave (c = 1 units)
  double tau = 0.288;  // pseudo-time step
  double h = 1.0;      // isotropic mesh width
};

/// Standard parameter choice: wavelength given in cells, CFL-limited tau.
ThiimParams make_params(double wavelength_cells, double cfl = 0.5, double h = 1.0);

/// Per-cell coefficient pair for one component (exposed for unit tests).
struct CoeffPair {
  std::complex<double> t;
  std::complex<double> c;
  /// Scale applied to a raw source S before storing into the Src array
  /// (tau/denom, negated for back-iteration cells).
  std::complex<double> src_scale;
  bool back_iteration = false;
};

CoeffPair compute_coeffs(const kernels::CompInfo& comp, const Material& m,
                         double sigma_pml, double sigma_star_pml, const ThiimParams& p);

/// Fill the interior of all 24 t/c arrays of `fs` from the material map and
/// PML profiles.  The build is tabulated: compute_coeffs runs once per
/// (component, palette id, position along the component's derivative axis),
/// and the cell loop only looks pairs up, bit-identical to calling
/// compute_coeffs per cell.  The lookup runs over the z-slab split of
/// FieldSet::clear_all on `threads` threads (threads == 1 starts no
/// thread).  It clears nothing: fields, sources and the coefficient halos
/// are left as they are, so on storage that is not fresh, clear fields and
/// sources too (Simulation::finalize does) and add sources afterwards
/// (em/source.hpp).  Throws std::invalid_argument when `mats` has other
/// extents than `fs`.
void build_coefficients(grid::FieldSet& fs, const MaterialGrid& mats,
                        const PmlProfiles& pml, const ThiimParams& p, int threads = 1);

/// Uniform-material fast path (benchmarking: same arithmetic, no geometry).
void build_uniform_coefficients(grid::FieldSet& fs, const Material& m,
                                const ThiimParams& p);

/// Synthetic coefficients for correctness/performance tests: every t has
/// |t| <= rho < 1 (contractive, so long runs stay bounded) and c is a small
/// random complex number.  Fields are seeded with random data too.
void build_random_stable(grid::FieldSet& fs, std::uint64_t seed, double rho = 0.97);

}  // namespace emwd::em
