// Golden-hash gate for the row-kernel ISA variants: every variant this
// binary compiled and this CPU supports must be bit-for-bit the scalar
// kernel, row by row and over whole time steps.  This is what holds the
// per-ISA compile flags (no FMA, -ffp-contract=off) honest.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "kernels/components.hpp"
#include "kernels/row_kernel.hpp"
#include "kernels/update.hpp"
#include "thiim/simulation.hpp"
#include "util/rng.hpp"

namespace {

using namespace emwd;
using kernels::RowArgs;
using kernels::RowKernel;

struct RowData {
  std::vector<double> x, t, c, src, a, b;
  int n;

  RowData(int cells, std::uint64_t seed) : n(cells) {
    util::Xoshiro256 rng(seed);
    auto fill = [&](std::vector<double>& v, int len) {
      v.resize(static_cast<std::size_t>(len));
      for (auto& e : v) e = rng.uniform(-1.0, 1.0);
    };
    fill(x, 2 * n);
    fill(t, 2 * n);
    fill(c, 2 * n);
    fill(src, 2 * n);
    fill(a, 2 * 3 * n);
    fill(b, 2 * 3 * n);
  }

  RowArgs args(std::vector<double>& xbuf, std::ptrdiff_t shift, bool with_src, double ds) {
    RowArgs g;
    g.x = xbuf.data();
    g.t = t.data();
    g.c = c.data();
    g.src = with_src ? src.data() : nullptr;
    g.a = a.data() + 2 * n;
    g.b = b.data() + 2 * n;
    g.shift = shift;
    g.ds = ds;
    g.n = n;
    return g;
  }
};

/// Bitwise equality (EXPECT_EQ on doubles would let -0.0 == +0.0 through).
bool same_bits(const std::vector<double>& p, const std::vector<double>& q) {
  return p.size() == q.size() &&
         std::memcmp(p.data(), q.data(), p.size() * sizeof(double)) == 0;
}

/// FNV-1a over the bit patterns of all 12 field components.
std::uint64_t field_hash(const grid::FieldSet& fs) {
  const grid::Layout& L = fs.layout();
  std::uint64_t h = 1469598103934665603ull;
  for (const kernels::CompInfo& ci : kernels::kComps) {
    const double* data = fs.field(ci.self).data();
    for (int k = 0; k < L.nz(); ++k) {
      for (int j = 0; j < L.ny(); ++j) {
        const double* row = data + 2 * L.at(0, j, k);
        for (int d = 0; d < 2 * L.nx(); ++d) {
          std::uint64_t word = 0;
          std::memcpy(&word, row + d, sizeof word);
          h = (h ^ word) * 1099511628211ull;
        }
      }
    }
  }
  return h;
}

/// Field hash of a periodic-x scene with z-PML, a plane wave and a dipole
/// after `steps` naive-order steps through the given row-kernel variant.
std::uint64_t scene_hash(kernels::RowFn kernel, int steps) {
  thiim::SimulationConfig cfg;
  cfg.grid = {13, 10, 24};  // odd nx: every row has an odd-length tail
  cfg.wavelength_cells = 10.0;
  cfg.pml.thickness = 4;
  cfg.x_boundary = grid::XBoundary::Periodic;
  cfg.engine_spec = "naive(threads=1)";
  thiim::Simulation sim(cfg);
  sim.finalize();
  sim.add_plane_wave(em::SourceField::Ex, 6, {1.0, 0.5});
  sim.add_point_dipole(em::SourceField::Ey, 4, 5, 12, {0.25, -1.0});
  grid::FieldSet& fs = sim.fields();
  const grid::Layout& L = fs.layout();
  for (int s = 0; s < steps; ++s) {
    for (const auto* comps : {&kernels::kHComps, &kernels::kEComps}) {
      for (kernels::Comp comp : *comps) {
        for (int k = 0; k < L.nz(); ++k) {
          for (int j = 0; j < L.ny(); ++j) {
            kernels::update_comp_row(fs, comp, 0, L.nx(), j, k, kernel);
          }
        }
      }
    }
  }
  return field_hash(fs);
}

TEST(RowKernelDispatch, ScalarFirstDispatchedLast) {
  const auto table = kernels::row_kernels();
  ASSERT_FALSE(table.empty());
  EXPECT_STREQ(table.front().name, "scalar");
  EXPECT_EQ(&kernels::row_kernel(), &table.back());
  for (const RowKernel& k : table) {
    EXPECT_EQ(kernels::kernel_isa_name(k.name), k.name);
  }
  EXPECT_EQ(kernels::kernel_isa_name("not_an_isa"), nullptr);
}

TEST(RowKernelDispatch, EveryVariantMatchesScalarBitwiseOnRandomRows) {
  const RowKernel& scalar = kernels::row_kernels().front();
  for (const RowKernel& variant : kernels::row_kernels()) {
    // Odd and even lengths (vector tails), both shift directions, near and
    // far partners, both diff signs, with and without the source term.
    for (int n : {1, 2, 3, 5, 8, 17, 64, 129}) {
      RowData d(n, 1000u + static_cast<std::uint64_t>(n));
      const std::ptrdiff_t far = n;
      for (std::ptrdiff_t shift : {-far, far, std::ptrdiff_t{-1}, std::ptrdiff_t{1}}) {
        for (bool with_src : {true, false}) {
          for (double ds : {1.0, -1.0}) {
            std::vector<double> want = d.x, got = d.x;
            scalar.fn(d.args(want, shift, with_src, ds));
            variant.fn(d.args(got, shift, with_src, ds));
            EXPECT_TRUE(same_bits(want, got))
                << variant.name << " n=" << n << " shift=" << shift << " src=" << with_src
                << " ds=" << ds;
          }
        }
      }
    }
  }
}

TEST(RowKernelDispatch, EveryVariantReproducesTheScalarFieldHash) {
  constexpr int kSteps = 20;
  const kernels::RowFn scalar = kernels::row_kernels().front().fn;
  const std::uint64_t want = scene_hash(scalar, kSteps);
  ASSERT_NE(want, scene_hash(scalar, 0)) << "the scene must evolve";
  for (const RowKernel& variant : kernels::row_kernels()) {
    EXPECT_EQ(scene_hash(variant.fn, kSteps), want) << variant.name;
  }
}

}  // namespace
