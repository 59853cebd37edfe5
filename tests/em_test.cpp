// Unit tests for materials, geometry, PML and THIIM coefficients.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>

#include "em/coefficients.hpp"
#include "em/geometry.hpp"
#include "em/material.hpp"
#include "em/observables.hpp"
#include "em/pml.hpp"
#include "em/source.hpp"
#include "grid/fieldset.hpp"

namespace {

using namespace emwd;
using kernels::Axis;
using kernels::Comp;
using cd = std::complex<double>;

TEST(Material, PresetsAndBackIterationFlag) {
  EXPECT_FALSE(em::vacuum().needs_back_iteration());
  EXPECT_FALSE(em::amorphous_silicon().needs_back_iteration());
  EXPECT_TRUE(em::silver().needs_back_iteration());  // Re(eps) < 0
  EXPECT_LT(em::silver().eps.real(), 0.0);
  EXPECT_GT(em::glass().eps.real(), 1.0);
}

TEST(MaterialGrid, PaletteAndCensus) {
  grid::Layout L({4, 4, 4});
  em::MaterialGrid mats(L);
  EXPECT_EQ(mats.palette_size(), 1u);  // vacuum preinstalled
  const auto ag = mats.add(em::silver());
  mats.set(1, 1, 1, ag);
  mats.set(2, 2, 2, ag);
  const auto counts = mats.census();
  EXPECT_EQ(counts[0], 62u);
  EXPECT_EQ(counts[ag], 2u);
  EXPECT_EQ(mats.at(1, 1, 1).name, "silver");
  EXPECT_EQ(mats.at(0, 0, 0).name, "vacuum");
}

TEST(MaterialGrid, RejectsBadIds) {
  grid::Layout L({2, 2, 2});
  em::MaterialGrid mats(L);
  EXPECT_THROW(mats.set(0, 0, 0, 5), std::out_of_range);
  EXPECT_THROW(mats.fill(9), std::out_of_range);
}

TEST(Geometry, LayerAndSphere) {
  grid::Layout L({10, 10, 10});
  em::MaterialGrid mats(L);
  const auto a = mats.add(em::glass());
  const auto b = mats.add(em::silver());
  em::GeometryBuilder(mats).layer(a, 0, 3).sphere(b, 5, 5, 5, 2.0);
  EXPECT_EQ(mats.id_at(0, 0, 0), a);
  EXPECT_EQ(mats.id_at(9, 9, 2), a);
  EXPECT_EQ(mats.id_at(9, 9, 3), 0);
  EXPECT_EQ(mats.id_at(5, 5, 5), b);
  EXPECT_EQ(mats.id_at(5, 5, 7), b);  // on the radius
  EXPECT_EQ(mats.id_at(5, 5, 8), 0);  // outside
}

TEST(Geometry, TexturedLayerFollowsHeightMap) {
  grid::Layout L({8, 8, 12});
  em::MaterialGrid mats(L);
  const auto a = mats.add(em::tco());
  em::GeometryBuilder(mats).textured_layer(a, 0, 4, [](int i, int) {
    return i < 4 ? 0.5 : 3.5;  // step texture
  });
  EXPECT_EQ(mats.id_at(0, 0, 3), a);   // below base everywhere
  EXPECT_EQ(mats.id_at(0, 0, 4), 0);   // low region stops at base
  EXPECT_EQ(mats.id_at(5, 0, 6), a);   // high region extends
  EXPECT_EQ(mats.id_at(5, 0, 7), 0);
}

TEST(Geometry, TexturesAreDeterministicAndBounded) {
  const auto rough = em::GeometryBuilder::rough_texture(4.0, 3.0, 42);
  const auto rough2 = em::GeometryBuilder::rough_texture(4.0, 3.0, 42);
  const auto sin_tex = em::GeometryBuilder::sinusoidal_texture(2.0, 8.0, 8.0);
  for (int j = 0; j < 16; ++j) {
    for (int i = 0; i < 16; ++i) {
      EXPECT_DOUBLE_EQ(rough(i, j), rough2(i, j));
      EXPECT_GE(rough(i, j), 0.0);
      EXPECT_LE(rough(i, j), 4.0);
      EXPECT_GE(sin_tex(i, j), 0.0);
      EXPECT_LE(sin_tex(i, j), 4.0);
    }
  }
}

TEST(Pml, ProfileShape) {
  grid::Layout L({16, 16, 32});
  em::PmlSpec spec;  // z only, thickness 8
  em::PmlProfiles pml(L, spec, 1.0);
  // Interior free of damping.
  EXPECT_DOUBLE_EQ(pml.sigma(Axis::Z, 16), 0.0);
  // Maximum at the domain faces, graded monotonically.
  EXPECT_NEAR(pml.sigma(Axis::Z, 0), pml.sigma_max(), 1e-12);
  EXPECT_NEAR(pml.sigma(Axis::Z, 31), pml.sigma_max(), 1e-12);
  for (int k = 1; k <= 8; ++k) {
    EXPECT_LE(pml.sigma(Axis::Z, k), pml.sigma(Axis::Z, k - 1));
  }
  // Symmetric front/back.
  for (int k = 0; k < 8; ++k) {
    EXPECT_NEAR(pml.sigma(Axis::Z, k), pml.sigma(Axis::Z, 31 - k), 1e-12);
  }
  // x and y are not absorbing in the default spec.
  EXPECT_DOUBLE_EQ(pml.sigma(Axis::X, 0), 0.0);
  EXPECT_DOUBLE_EQ(pml.sigma(Axis::Y, 0), 0.0);
  // Matched magnetic conductivity.
  EXPECT_DOUBLE_EQ(pml.sigma_star(Axis::Z, 2), pml.sigma(Axis::Z, 2));
}

TEST(Pml, OutOfRangeIsZero) {
  grid::Layout L({8, 8, 8});
  em::PmlProfiles pml(L, em::PmlSpec{}, 1.0);
  EXPECT_DOUBLE_EQ(pml.sigma(Axis::Z, -1), 0.0);
  EXPECT_DOUBLE_EQ(pml.sigma(Axis::Z, 100), 0.0);
}

TEST(Params, MakeParams) {
  const em::ThiimParams p = em::make_params(24.0, 0.5, 1.0);
  EXPECT_NEAR(p.omega, 2.0 * M_PI / 24.0, 1e-12);
  EXPECT_NEAR(p.tau, 0.5 / std::sqrt(3.0), 1e-12);
}

TEST(Coefficients, LosslessForwardIterationIsUnitary) {
  // sigma = 0, forward iteration: |t| = |1/e^{i w tau}| = 1 for Ê and
  // |e^{-i w tau/2}/e^{i w tau/2}| = 1 for Ĥ.
  const em::ThiimParams p = em::make_params(20.0);
  const em::Material vac = em::vacuum();
  for (const auto& c : kernels::kComps) {
    const em::CoeffPair cc = em::compute_coeffs(c, vac, 0.0, 0.0, p);
    EXPECT_NEAR(std::abs(cc.t), 1.0, 1e-12) << c.name;
    EXPECT_FALSE(cc.back_iteration);
    EXPECT_GT(std::abs(cc.c), 0.0);
  }
}

TEST(Coefficients, DampingContracts) {
  const em::ThiimParams p = em::make_params(20.0);
  em::Material lossy = em::vacuum();
  lossy.sigma = 0.5;
  for (const auto& c : kernels::kComps) {
    const em::CoeffPair cc = em::compute_coeffs(c, lossy, 0.5, 0.5, p);
    EXPECT_LT(std::abs(cc.t), 1.0) << c.name;  // strictly contractive
  }
}

TEST(Coefficients, BackIterationForSilver) {
  const em::ThiimParams p = em::make_params(20.0);
  const em::Material ag = em::silver();
  const auto& exy = kernels::info(Comp::Exy);
  const em::CoeffPair cc = em::compute_coeffs(exy, ag, 0.0, 0.0, p);
  EXPECT_TRUE(cc.back_iteration);
  // The back iteration flips the curl-coefficient sign relative to the
  // forward form; with eps < 0 the two effects compose to a finite value.
  EXPECT_TRUE(std::isfinite(cc.c.real()));
  EXPECT_TRUE(std::isfinite(cc.t.real()));
  // Ĥ components never use back iteration.
  const em::CoeffPair hh = em::compute_coeffs(kernels::info(Comp::Hyx), ag, 0.0, 0.0, p);
  EXPECT_FALSE(hh.back_iteration);
}

TEST(Coefficients, BuildUniformMatchesPerCell) {
  grid::Layout L({4, 4, 4});
  grid::FieldSet fs(L);
  const em::ThiimParams p = em::make_params(16.0);
  const em::Material m = em::glass();
  em::build_uniform_coefficients(fs, m, p);
  for (const auto& c : kernels::kComps) {
    const em::CoeffPair cc = em::compute_coeffs(c, m, 0.0, 0.0, p);
    const cd t = fs.coeff_t(c.self).at(2, 1, 3);
    EXPECT_NEAR(std::abs(t - cc.t), 0.0, 1e-14);
    const cd cv = fs.coeff_c(c.self).at(0, 0, 0);
    EXPECT_NEAR(std::abs(cv - cc.c), 0.0, 1e-14);
  }
}

TEST(Coefficients, BuildAppliesPmlPerDerivativeAxis) {
  // In the z-PML shell, only components whose derivative axis is z are
  // damped (Berenger splitting).
  grid::Layout L({8, 8, 24});
  grid::FieldSet fs(L);
  em::MaterialGrid mats(L);
  const em::ThiimParams p = em::make_params(16.0);
  em::PmlSpec spec;
  spec.thickness = 6;
  em::PmlProfiles pml(L, spec, p.h);
  em::build_coefficients(fs, mats, pml, p);

  const cd t_z_shell = fs.coeff_t(Comp::Exy).at(4, 4, 0);   // axis Z, in shell
  const cd t_z_core = fs.coeff_t(Comp::Exy).at(4, 4, 12);   // axis Z, interior
  const cd t_y_shell = fs.coeff_t(Comp::Exz).at(4, 4, 0);   // axis Y, in shell
  EXPECT_LT(std::abs(t_z_shell), std::abs(t_z_core));       // damped
  EXPECT_NEAR(std::abs(t_y_shell), std::abs(t_z_core), 1e-12);  // untouched
}

/// PML on all six faces, five materials (silver needs the back
/// iteration) and a rough textured interface: every table axis and every
/// coefficient branch is exercised.  Odd nz so z-slabs split unevenly.
struct TexturedScene {
  grid::Layout L{grid::Extents{11, 9, 17}};
  em::MaterialGrid mats{L};
  em::ThiimParams p = em::make_params(9.0);
  em::PmlProfiles pml{L,
                      em::PmlSpec{.thickness = 3, .on_x = true, .on_y = true, .on_z = true},
                      1.0};
  TexturedScene() {
    const auto ag = mats.add(em::silver());
    const auto ucsi = mats.add(em::microcrystalline_silicon());
    const auto asi = mats.add(em::amorphous_silicon());
    const auto tco = mats.add(em::tco());
    em::GeometryBuilder g(mats);
    g.layer(ag, 0, 3);
    g.textured_layer(ucsi, 3, 7, em::GeometryBuilder::rough_texture(3.0, 2.0, 11));
    g.layer(asi, 9, 12);
    g.layer(tco, 12, 14);
  }
};

bool same_bytes(const grid::Field& a, const grid::Field& b) {
  return a.size_bytes() == b.size_bytes() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

TEST(Coefficients, TabulatedBuildIsByteIdenticalToPerCellCompute) {
  TexturedScene s;
  ASSERT_EQ(s.mats.palette_size(), 5u);
  grid::FieldSet built(s.L), ref(s.L);
  em::build_coefficients(built, s.mats, s.pml, s.p);

  // The definition the table must reproduce: compute_coeffs per cell.
  bool back_iteration_seen = false;
  for (const auto& comp : kernels::kComps) {
    for (int k = 0; k < s.L.nz(); ++k) {
      for (int j = 0; j < s.L.ny(); ++j) {
        for (int i = 0; i < s.L.nx(); ++i) {
          const int pos = comp.axis == Axis::X ? i : comp.axis == Axis::Y ? j : k;
          const em::CoeffPair cc =
              em::compute_coeffs(comp, s.mats.at(i, j, k), s.pml.sigma(comp.axis, pos),
                                 s.pml.sigma_star(comp.axis, pos), s.p);
          back_iteration_seen |= cc.back_iteration;
          ref.coeff_t(comp.self).set(i, j, k, cc.t);
          ref.coeff_c(comp.self).set(i, j, k, cc.c);
        }
      }
    }
  }
  EXPECT_TRUE(back_iteration_seen);
  for (const auto& comp : kernels::kComps) {
    EXPECT_TRUE(same_bytes(built.coeff_t(comp.self), ref.coeff_t(comp.self))) << comp.name;
    EXPECT_TRUE(same_bytes(built.coeff_c(comp.self), ref.coeff_c(comp.self))) << comp.name;
    EXPECT_TRUE(same_bytes(built.field(comp.self), ref.field(comp.self))) << comp.name;
  }
}

TEST(Coefficients, BuildIsTheSameOnOneTwoAndThreeThreads) {
  TexturedScene s;
  grid::FieldSet one(s.L);
  em::build_coefficients(one, s.mats, s.pml, s.p, 1);
  for (int threads : {2, 3}) {
    grid::FieldSet many(s.L);
    em::build_coefficients(many, s.mats, s.pml, s.p, threads);
    for (const auto& comp : kernels::kComps) {
      EXPECT_TRUE(same_bytes(many.coeff_t(comp.self), one.coeff_t(comp.self)))
          << comp.name << " on " << threads << " threads";
      EXPECT_TRUE(same_bytes(many.coeff_c(comp.self), one.coeff_c(comp.self)))
          << comp.name << " on " << threads << " threads";
    }
  }
}

TEST(Coefficients, BuildLeavesSourcesAndFieldsAlone) {
  TexturedScene s;
  grid::FieldSet fs(s.L);
  fs.source(0).set(1, 2, 3, {4.0, 5.0});
  fs.field(Comp::Hzx).set(3, 2, 1, {6.0, 7.0});
  em::build_coefficients(fs, s.mats, s.pml, s.p, 2);
  EXPECT_EQ(fs.source(0).at(1, 2, 3), cd(4.0, 5.0));
  EXPECT_EQ(fs.field(Comp::Hzx).at(3, 2, 1), cd(6.0, 7.0));

  em::MaterialGrid other(grid::Layout({11, 9, 16}));
  EXPECT_THROW(em::build_coefficients(fs, other, s.pml, s.p), std::invalid_argument);
}

TEST(Coefficients, RandomStableIsContractiveAndSeeded) {
  grid::Layout L({6, 6, 6});
  grid::FieldSet a(L), b(L);
  em::build_random_stable(a, 7);
  em::build_random_stable(b, 7);
  EXPECT_DOUBLE_EQ(grid::FieldSet::max_field_diff(a, b), 0.0);  // deterministic
  for (const auto& c : kernels::kComps) {
    for (int k = 0; k < 6; ++k) {
      for (int j = 0; j < 6; ++j) {
        for (int i = 0; i < 6; ++i) {
          EXPECT_LE(std::abs(a.coeff_t(c.self).at(i, j, k)), 0.97 + 1e-12);
        }
      }
    }
  }
  grid::FieldSet c2(L);
  em::build_random_stable(c2, 8);
  EXPECT_GT(grid::FieldSet::max_field_diff(a, c2), 0.0);  // seed matters
}

TEST(Sources, PlaneWaveDepositsOnSinglePlane) {
  grid::Layout L({6, 6, 10});
  grid::FieldSet fs(L);
  em::MaterialGrid mats(L);
  const em::ThiimParams p = em::make_params(16.0);
  em::PmlProfiles pml(L, em::PmlSpec{}, p.h);
  em::add_plane_wave(fs, mats, pml, p, em::SourceField::Ex, 7, {1.0, 0.0});
  const grid::Field& src = fs.source(0);  // SrcEx
  for (int k = 0; k < 10; ++k) {
    for (int j = 0; j < 6; ++j) {
      for (int i = 0; i < 6; ++i) {
        if (k == 7) {
          EXPECT_GT(std::abs(src.at(i, j, k)), 0.0);
        } else {
          EXPECT_EQ(src.at(i, j, k), cd(0, 0));
        }
      }
    }
  }
  EXPECT_THROW(
      em::add_plane_wave(fs, mats, pml, p, em::SourceField::Ex, 10, {1.0, 0.0}),
      std::out_of_range);
}

TEST(Sources, PointDipoleSingleCellAndAccumulates) {
  grid::Layout L({6, 6, 6});
  grid::FieldSet fs(L);
  em::MaterialGrid mats(L);
  const em::ThiimParams p = em::make_params(16.0);
  em::PmlProfiles pml(L, em::PmlSpec{}, p.h);
  em::add_point_dipole(fs, mats, pml, p, em::SourceField::Hy, 2, 3, 4, {1.0, 0.0});
  em::add_point_dipole(fs, mats, pml, p, em::SourceField::Hy, 2, 3, 4, {1.0, 0.0});
  const grid::Field& src = fs.source(3);  // SrcHy
  const cd v = src.at(2, 3, 4);
  EXPECT_GT(std::abs(v), 0.0);
  // Second deposit doubled the value.
  em::add_point_dipole(fs, mats, pml, p, em::SourceField::Hy, 2, 3, 4, {-2.0, 0.0});
  EXPECT_NEAR(std::abs(src.at(2, 3, 4)), 0.0, 1e-14);
  EXPECT_THROW(
      em::add_point_dipole(fs, mats, pml, p, em::SourceField::Hy, 6, 0, 0, {1.0, 0.0}),
      std::out_of_range);
}

TEST(Observables, EnergyAndParents) {
  grid::Layout L({4, 4, 4});
  grid::FieldSet fs(L);
  fs.field(Comp::Exy).set(1, 1, 1, {3.0, 0.0});
  fs.field(Comp::Exz).set(1, 1, 1, {1.0, 0.0});
  EXPECT_EQ(em::parent_E(fs, 0, 1, 1, 1), cd(4.0, 0.0));
  EXPECT_DOUBLE_EQ(em::electric_energy(fs), 16.0);
  EXPECT_DOUBLE_EQ(em::magnetic_energy(fs), 0.0);
  fs.field(Comp::Hzx).set(0, 0, 0, {0.0, 2.0});
  EXPECT_EQ(em::parent_H(fs, 2, 0, 0, 0), cd(0.0, 2.0));
  EXPECT_DOUBLE_EQ(em::total_energy(fs), 20.0);
}

TEST(Observables, AbsorptionGroupsByMaterial) {
  grid::Layout L({4, 4, 4});
  grid::FieldSet fs(L);
  em::MaterialGrid mats(L);
  const auto asi = mats.add(em::amorphous_silicon());
  mats.set(1, 1, 1, asi);
  fs.field(Comp::Exy).set(1, 1, 1, {1.0, 0.0});  // inside a-Si
  fs.field(Comp::Eyx).set(2, 2, 2, {1.0, 0.0});  // in vacuum
  const auto abs = em::absorption_by_material(fs, mats, 0.3);
  ASSERT_EQ(abs.size(), 2u);
  EXPECT_GT(abs[asi], 0.0);
  EXPECT_DOUBLE_EQ(abs[0], 0.0);  // vacuum absorbs nothing
}

TEST(Observables, FixedPointResidualDropsAtSteadyState) {
  // In a strongly lossy medium with no source, any state decays: the
  // residual is positive while fields are nonzero, and the all-zero state
  // (with zero sources) is an exact fixed point with residual 0.
  grid::Layout L({6, 6, 6});
  grid::FieldSet fs(L);
  em::build_uniform_coefficients(fs, em::vacuum(), em::make_params(12.0));
  EXPECT_DOUBLE_EQ(em::fixed_point_residual(fs), 0.0);  // zero state, no source
  fs.field(Comp::Exy).set(3, 3, 3, {1.0, 0.0});
  EXPECT_GT(em::fixed_point_residual(fs), 0.0);
  // The residual probe must not modify the state itself.
  EXPECT_EQ(fs.field(Comp::Exy).at(3, 3, 3), cd(1.0, 0.0));
}

TEST(Observables, RelativeChange) {
  grid::Layout L({3, 3, 3});
  grid::FieldSet a(L), b(L);
  a.field(Comp::Exy).set(0, 0, 0, {2.0, 0.0});
  b.copy_fields_from(a);
  EXPECT_DOUBLE_EQ(em::relative_change(a, b), 0.0);
  b.field(Comp::Exy).set(0, 0, 0, {3.0, 0.0});
  EXPECT_DOUBLE_EQ(em::relative_change(a, b), 0.5);  // |2-3| / |2|
}

}  // namespace
