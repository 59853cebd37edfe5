// Physical observables on the THIIM state.
#pragma once

#include <array>
#include <complex>
#include <vector>

#include "em/material.hpp"
#include "grid/fieldset.hpp"

namespace emwd::em {

/// |Ex|^2+|Ey|^2+|Ez|^2 summed over the interior (parent fields are the sums
/// of their two split parts).
double electric_energy(const grid::FieldSet& fs);

/// |Hx|^2+|Hy|^2+|Hz|^2 summed over the interior.
double magnetic_energy(const grid::FieldSet& fs);

inline double total_energy(const grid::FieldSet& fs) {
  return electric_energy(fs) + magnetic_energy(fs);
}

/// Dissipated power density summed per material palette id:
/// (sigma + omega*Im(eps)) * |E|^2 per cell.  This is the per-layer
/// absorption figure a solar-cell designer reads off the simulation.
std::vector<double> absorption_by_material(const grid::FieldSet& fs,
                                           const MaterialGrid& mats, double omega);

/// Parent-field value at a cell (sum of split parts), e.g. Ex = Exy + Exz.
std::complex<double> parent_E(const grid::FieldSet& fs, int axis, int i, int j, int k);
std::complex<double> parent_H(const grid::FieldSet& fs, int axis, int i, int j, int k);

/// Relative change between two field snapshots: ||a - b|| / max(||a||, eps).
/// The THIIM iteration has converged to the time-harmonic solution when this
/// stops decreasing.
double relative_change(const grid::FieldSet& a, const grid::FieldSet& b);

/// The 12 field arrays alone, indexed by kernels::idx(comp): a field
/// snapshot without the 28 coefficient and source arrays of a FieldSet.
using FieldSnapshot = std::array<grid::Field, kernels::kNumComps>;

/// relative_change against a snapshot of `a`'s layout.
double relative_change(const grid::FieldSet& a, const FieldSnapshot& b);

/// L2 norm over all 12 field arrays.
double fields_norm(const grid::FieldSet& fs);

/// Discrete fixed-point residual of the THIIM iteration: advance a copy of
/// the fields by one step and return ||next - fields|| / max(||fields||, 1e-300).
/// At the time-harmonic solution the iteration is stationary, so this is
/// the solver's convergence measure (paper Sec. I-A: the inverse iteration
/// converges to the discretized time-harmonic Maxwell solution).
double fixed_point_residual(const grid::FieldSet& fs);

}  // namespace emwd::em
