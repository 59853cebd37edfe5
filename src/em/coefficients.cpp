#include "em/coefficients.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "exec/thread_pool.hpp"
#include "util/rng.hpp"

namespace emwd::em {

namespace {
constexpr double kPi = 3.14159265358979323846;

int axis_position(kernels::Axis axis, int i, int j, int k) {
  switch (axis) {
    case kernels::Axis::X:
      return i;
    case kernels::Axis::Y:
      return j;
    case kernels::Axis::Z:
    default:
      return k;
  }
}

int axis_extent(const grid::Layout& L, kernels::Axis axis) {
  return axis_position(axis, L.nx(), L.ny(), L.nz());
}
}  // namespace

ThiimParams make_params(double wavelength_cells, double cfl, double h) {
  ThiimParams p;
  p.h = h;
  p.omega = 2.0 * kPi / (wavelength_cells * h);  // c = 1
  p.tau = cfl * h / std::sqrt(3.0);
  return p;
}

CoeffPair compute_coeffs(const kernels::CompInfo& comp, const Material& m,
                         double sigma_pml, double sigma_star_pml, const ThiimParams& p) {
  using cd = std::complex<double>;
  const cd i_unit(0.0, 1.0);
  const cd phase_half = std::exp(i_unit * (p.omega * p.tau / 2.0));
  const cd phase_full = std::exp(i_unit * (p.omega * p.tau));

  CoeffPair out;
  if (comp.is_h) {
    const double sigma_star = m.sigma_star + sigma_star_pml;
    const cd denom = phase_half + cd(p.tau * sigma_star / m.mu, 0.0);
    out.t = std::conj(phase_half) / denom;  // e^{-i w tau/2} / denom
    out.c = cd(p.tau / (m.mu * p.h), 0.0) / denom;
    out.src_scale = cd(p.tau, 0.0) / denom;
    out.back_iteration = false;
    return out;
  }

  const double sigma = m.sigma + sigma_pml;
  out.back_iteration = m.needs_back_iteration();
  if (!out.back_iteration) {
    const cd denom = phase_full + p.tau * cd(sigma, 0.0) / m.eps;
    out.t = cd(1.0, 0.0) / denom;
    out.c = (p.tau / p.h) * phase_half / (m.eps * denom);
    out.src_scale = cd(p.tau, 0.0) / denom;
  } else {
    // Paper Eq. 5: the "back iteration" for negative-permittivity cells.
    const cd denom = cd(1.0, 0.0) - p.tau * cd(sigma, 0.0) / m.eps;
    out.t = phase_full / denom;
    out.c = -(p.tau / p.h) * phase_half / (m.eps * denom);
    out.src_scale = -cd(p.tau, 0.0) / denom;
  }
  return out;
}

void build_coefficients(grid::FieldSet& fs, const MaterialGrid& mats,
                        const PmlProfiles& pml, const ThiimParams& p, int threads) {
  const grid::Layout& L = fs.layout();
  if (!(mats.layout().interior() == L.interior())) {
    throw std::invalid_argument("build_coefficients: material map extents differ");
  }
  // A cell's pair depends only on its palette id and its position along the
  // component's derivative axis: tabulate compute_coeffs once per (id, pos)
  // and make the cell loop a lookup.  Same inputs, same bits.
  const int ids = static_cast<int>(mats.palette_size());
  std::array<std::vector<CoeffPair>, kernels::kNumComps> table;
  for (const auto& comp : kernels::kComps) {
    const int extent = axis_extent(L, comp.axis);
    std::vector<CoeffPair>& tab = table[kernels::idx(comp.self)];
    tab.resize(static_cast<std::size_t>(ids) * static_cast<std::size_t>(extent));
    for (int id = 0; id < ids; ++id) {
      const Material& m = mats.material(static_cast<std::uint8_t>(id));
      for (int pos = 0; pos < extent; ++pos) {
        tab[static_cast<std::size_t>(id) * extent + pos] = compute_coeffs(
            comp, m, pml.sigma(comp.axis, pos), pml.sigma_star(comp.axis, pos), p);
      }
    }
  }

  const int nz = L.nz();
  const int parts = std::clamp(threads, 1, nz);
  exec::ThreadTeam::run(parts, [&](int r) {
    const exec::Chunk zc = exec::split_range(nz, parts, r);
    for (const auto& comp : kernels::kComps) {
      const int extent = axis_extent(L, comp.axis);
      const CoeffPair* tab = table[kernels::idx(comp.self)].data();
      // Entry (id, pos) sits at id * extent + pos; pos is i, j or k.
      const int di = comp.axis == kernels::Axis::X ? 1 : 0;
      double* t = fs.coeff_t(comp.self).data();
      double* c = fs.coeff_c(comp.self).data();
      for (int k = zc.begin; k < zc.end; ++k) {
        for (int j = 0; j < L.ny(); ++j) {
          const CoeffPair* row = tab + axis_position(comp.axis, 0, j, k);
          const std::uint8_t* id = mats.ids_row(j, k);
          const std::size_t base = 2 * L.at(0, j, k);
          for (int i = 0; i < L.nx(); ++i) {
            const CoeffPair& e = row[static_cast<std::size_t>(id[i]) * extent + di * i];
            const std::size_t q = base + 2 * static_cast<std::size_t>(i);
            t[q] = e.t.real();
            t[q + 1] = e.t.imag();
            c[q] = e.c.real();
            c[q + 1] = e.c.imag();
          }
        }
      }
    }
  });
}

void build_uniform_coefficients(grid::FieldSet& fs, const Material& m,
                                const ThiimParams& p) {
  for (const auto& comp : kernels::kComps) {
    const CoeffPair cc = compute_coeffs(comp, m, 0.0, 0.0, p);
    fs.coeff_t(comp.self).fill(cc.t);
    fs.coeff_c(comp.self).fill(cc.c);
  }
  for (int s = 0; s < kernels::kNumSources; ++s) fs.source(s).clear();
}

void build_random_stable(grid::FieldSet& fs, std::uint64_t seed, double rho) {
  util::Xoshiro256 rng(seed);
  const grid::Layout& L = fs.layout();
  auto fill_random = [&](grid::Field& f, double mag_lo, double mag_hi) {
    for (int k = 0; k < L.nz(); ++k) {
      for (int j = 0; j < L.ny(); ++j) {
        for (int i = 0; i < L.nx(); ++i) {
          const double mag = rng.uniform(mag_lo, mag_hi);
          const double phase = rng.uniform(0.0, 2.0 * kPi);
          f.set(i, j, k, {mag * std::cos(phase), mag * std::sin(phase)});
        }
      }
    }
  };
  for (const auto& comp : kernels::kComps) {
    fill_random(fs.coeff_t(comp.self), 0.5 * rho, rho);  // strictly contractive
    fill_random(fs.coeff_c(comp.self), 0.0, 0.05);       // weak coupling
    fill_random(fs.field(comp.self), 0.0, 1.0);          // random initial state
  }
  for (int s = 0; s < kernels::kNumSources; ++s) {
    fill_random(fs.source(s), 0.0, 0.01);
  }
}

}  // namespace emwd::em
