// Unit tests for layouts, fields and the 12+28 array set.
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <cstring>
#include <vector>

#include "grid/field.hpp"
#include "grid/fieldset.hpp"
#include "grid/layout.hpp"

namespace {

using namespace emwd;
using grid::Extents;
using grid::Field;
using grid::FieldSet;
using grid::Layout;

TEST(Layout, ExtentsAndStrides) {
  Layout L({5, 6, 7});
  EXPECT_EQ(L.nx(), 5);
  EXPECT_EQ(L.ny(), 6);
  EXPECT_EQ(L.nz(), 7);
  EXPECT_EQ(L.halo(), 1);
  EXPECT_EQ(L.stride_x(), 1);
  EXPECT_GE(L.stride_y(), 5 + 2);
  EXPECT_EQ(L.stride_z(), L.stride_y() * L.py());
  // Rows padded to 4 complex cells (one cache line of doubles).
  EXPECT_EQ(L.stride_y() % 4, 0);
}

TEST(Layout, IndexingIsAffineAndHaloAddressable) {
  Layout L({4, 5, 6});
  EXPECT_EQ(L.at(1, 0, 0) - L.at(0, 0, 0), 1u);
  EXPECT_EQ(L.at(0, 1, 0) - L.at(0, 0, 0), static_cast<std::size_t>(L.stride_y()));
  EXPECT_EQ(L.at(0, 0, 1) - L.at(0, 0, 0), static_cast<std::size_t>(L.stride_z()));
  EXPECT_TRUE(L.addressable(-1, -1, -1));
  EXPECT_TRUE(L.addressable(4, 5, 6));
  EXPECT_FALSE(L.addressable(5, 0, 0));
  EXPECT_TRUE(L.contains(3, 4, 5));
  EXPECT_FALSE(L.contains(4, 0, 0));
  EXPECT_FALSE(L.contains(-1, 0, 0));
}

TEST(Layout, RejectsBadArguments) {
  EXPECT_THROW(Layout({0, 4, 4}), std::invalid_argument);
  EXPECT_THROW(Layout({4, -1, 4}), std::invalid_argument);
  EXPECT_THROW(Layout({4, 4, 4}, 0), std::invalid_argument);
}

TEST(Layout, DistinctCellsDistinctIndices) {
  Layout L({3, 4, 5});
  std::vector<std::size_t> seen;
  for (int k = -1; k <= 5; ++k)
    for (int j = -1; j <= 4; ++j)
      for (int i = -1; i <= 3; ++i) seen.push_back(L.at(i, j, k));
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
  EXPECT_LE(seen.back(), L.padded_cells() - 1);
}

TEST(Field, SetAtRoundTrip) {
  Layout L({4, 4, 4});
  Field f(L);
  f.set(1, 2, 3, {1.5, -2.5});
  EXPECT_EQ(f.at(1, 2, 3), std::complex<double>(1.5, -2.5));
  EXPECT_EQ(f.at(0, 0, 0), std::complex<double>(0.0, 0.0));
}

TEST(Field, InterleavedLayoutMatchesPaperListing) {
  // data[2p] is the real part, data[2p+1] the imaginary part.
  Layout L({4, 4, 4});
  Field f(L);
  f.set(2, 1, 1, {3.0, 4.0});
  const std::size_t p = L.at(2, 1, 1);
  EXPECT_DOUBLE_EQ(f.data()[2 * p], 3.0);
  EXPECT_DOUBLE_EQ(f.data()[2 * p + 1], 4.0);
}

TEST(Field, FillTouchesInteriorOnly) {
  Layout L({3, 3, 3});
  Field f(L);
  f.fill({1.0, 1.0});
  EXPECT_EQ(f.at(1, 1, 1), std::complex<double>(1.0, 1.0));
  // Halo cell must stay zero.
  const std::size_t halo = 2 * L.at(-1, 0, 0);
  EXPECT_DOUBLE_EQ(f.data()[halo], 0.0);
}

TEST(Field, ClearHaloPreservesInterior) {
  Layout L({3, 3, 3});
  Field f(L);
  // Dirty every double, interior and halo alike.
  for (std::size_t i = 0; i < f.size_complex() * 2; ++i) f.data()[i] = 7.0;
  f.clear_halo();
  EXPECT_EQ(f.at(1, 1, 1), std::complex<double>(7.0, 7.0));
  EXPECT_EQ(f.at(-1, 1, 1), std::complex<double>(0.0, 0.0));
  EXPECT_EQ(f.at(3, 1, 1), std::complex<double>(0.0, 0.0));
  EXPECT_EQ(f.at(1, -1, 1), std::complex<double>(0.0, 0.0));
  EXPECT_EQ(f.at(1, 1, 3), std::complex<double>(0.0, 0.0));
}

TEST(Field, NormAndMaxAbsDiff) {
  Layout L({2, 2, 2});
  Field a(L), b(L);
  a.set(0, 0, 0, {3.0, 4.0});
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  b.set(0, 0, 0, {3.0, 3.0});
  EXPECT_DOUBLE_EQ(Field::max_abs_diff(a, b), 1.0);
  Field c(Layout({3, 2, 2}));
  EXPECT_THROW(Field::max_abs_diff(a, c), std::invalid_argument);
}

TEST(FieldSet, FortyArraysAt640BytesPerCell) {
  EXPECT_EQ(FieldSet::num_arrays(), 40);
  EXPECT_EQ(FieldSet::bytes_per_cell(), 640u);  // paper Sec. I-A
  Layout L({8, 8, 8});
  FieldSet fs(L);
  EXPECT_GE(fs.allocated_bytes(), 40u * 16u * L.interior().cells());
}

TEST(FieldSet, SourceMapping) {
  Layout L({4, 4, 4});
  FieldSet fs(L);
  using kernels::Comp;
  // The four z-shift components own the four source arrays.
  EXPECT_EQ(fs.source_for(Comp::Exy), &fs.source(0));
  EXPECT_EQ(fs.source_for(Comp::Eyx), &fs.source(1));
  EXPECT_EQ(fs.source_for(Comp::Hxy), &fs.source(2));
  EXPECT_EQ(fs.source_for(Comp::Hyx), &fs.source(3));
  // All others have none.
  EXPECT_EQ(fs.source_for(Comp::Exz), nullptr);
  EXPECT_EQ(fs.source_for(Comp::Hzy), nullptr);
}

TEST(FieldSet, CopyAndDiff) {
  Layout L({4, 4, 4});
  FieldSet a(L), b(L);
  a.field(kernels::Comp::Hyx).set(1, 1, 1, {2.0, 0.0});
  EXPECT_DOUBLE_EQ(FieldSet::max_field_diff(a, b), 2.0);
  b.copy_fields_from(a);
  EXPECT_DOUBLE_EQ(FieldSet::max_field_diff(a, b), 0.0);
  // Coefficients are not part of copy_fields_from.
  a.coeff_t(kernels::Comp::Hyx).set(0, 0, 0, {9.0, 0.0});
  EXPECT_DOUBLE_EQ(FieldSet::max_field_diff(a, b), 0.0);
  FieldSet c(Layout({5, 4, 4}));
  EXPECT_THROW(c.copy_fields_from(a), std::invalid_argument);
}

TEST(FieldSet, ClearFieldsKeepsCoefficients) {
  Layout L({3, 3, 3});
  FieldSet fs(L);
  fs.field(kernels::Comp::Exy).set(0, 0, 0, {1.0, 1.0});
  fs.coeff_c(kernels::Comp::Exy).set(0, 0, 0, {5.0, 5.0});
  fs.clear_fields();
  EXPECT_EQ(fs.field(kernels::Comp::Exy).at(0, 0, 0), std::complex<double>(0, 0));
  EXPECT_EQ(fs.coeff_c(kernels::Comp::Exy).at(0, 0, 0), std::complex<double>(5, 5));
}

/// Every array of `fs`, fields first, then t, c and sources.
std::vector<Field*> all_arrays(FieldSet& fs) {
  std::vector<Field*> out;
  for (const auto& c : kernels::kComps) out.push_back(&fs.field(c.self));
  for (const auto& c : kernels::kComps) out.push_back(&fs.coeff_t(c.self));
  for (const auto& c : kernels::kComps) out.push_back(&fs.coeff_c(c.self));
  for (int s = 0; s < kernels::kNumSources; ++s) out.push_back(&fs.source(s));
  return out;
}

/// True when every double of `f`, halo included, is +0.0.
bool all_zero_bytes(const Field& f) {
  const std::vector<double> zeros(f.size_complex() * 2, 0.0);
  return std::memcmp(f.data(), zeros.data(), f.size_bytes()) == 0;
}

void fill_with(Field& f, double v) {
  std::fill(f.data(), f.data() + 2 * f.size_complex(), v);
}

TEST(FieldSet, ParallelZeroingCoversEveryPlaneHaloIncluded) {
  // Odd nz so the z-slabs are uneven; 3 threads split 7 interior planes and
  // the first and last threads take the halo planes.
  const Layout L({5, 4, 7});
  for (int threads : {1, 2, 3, 9}) {
    FieldSet fresh(L, threads);
    for (Field* f : all_arrays(fresh)) {
      EXPECT_TRUE(all_zero_bytes(*f)) << "fresh, threads " << threads;
    }
    FieldSet reused(L, grid::kUninitialized);
    for (Field* f : all_arrays(reused)) fill_with(*f, -1.5);
    reused.clear_all(threads);
    for (Field* f : all_arrays(reused)) {
      EXPECT_TRUE(all_zero_bytes(*f)) << "clear_all, threads " << threads;
    }
  }
}

TEST(FieldSet, PartialClearsTouchOnlyTheirArrays) {
  const Layout L({4, 3, 5});
  FieldSet fs(L, grid::kUninitialized);
  const std::vector<Field*> arrays = all_arrays(fs);
  for (Field* f : arrays) fill_with(*f, 2.0);
  fs.clear_fields(3);
  for (std::size_t a = 0; a < arrays.size(); ++a) {
    EXPECT_EQ(all_zero_bytes(*arrays[a]), a < kernels::kNumComps) << "array " << a;
  }
  fs.clear_sources(2);
  for (std::size_t a = 0; a < arrays.size(); ++a) {
    const bool cleared = a < kernels::kNumComps || a >= 3 * kernels::kNumComps;
    EXPECT_EQ(all_zero_bytes(*arrays[a]), cleared) << "array " << a;
  }
}

TEST(Field, ClearZPlanesValidatesTheRange) {
  const Layout L({2, 2, 3});
  Field f(L, grid::kUninitialized);
  fill_with(f, 1.0);
  f.clear_z_planes(-1, 5);  // halo below, 3 interior planes, halo above
  EXPECT_TRUE(all_zero_bytes(f));
  EXPECT_THROW(f.clear_z_planes(-2, 1), std::out_of_range);
  EXPECT_THROW(f.clear_z_planes(2, 3), std::out_of_range);
}

}  // namespace
