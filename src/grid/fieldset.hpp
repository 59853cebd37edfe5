// The complete THIIM state: 12 field arrays + 28 coefficient arrays.
//
// Per paper Sec. III: each of the 12 split components carries a `t` and a `c`
// coefficient array, and the four z-shift components carry a source array
// (4*3 + 8*2 = 28 coefficient arrays).  All 40 arrays are domain-sized
// double-complex, i.e. 640 bytes per grid cell.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "grid/field.hpp"
#include "grid/layout.hpp"
#include "kernels/components.hpp"

namespace emwd::grid {

/// Boundary handling along x (the fast dimension).  Dirichlet is the
/// paper's benchmark configuration (zero halo); Periodic implements the
/// paper's Sec. VI outlook via peeled first/last x iterations that read the
/// wrapped-around partner cells.  y and z remain Dirichlet (the tiling
/// would need wrap-around dependencies otherwise).
enum class XBoundary : std::uint8_t { Dirichlet, Periodic };

class FieldSet {
 public:
  FieldSet() = default;
  /// Allocate all 40 arrays and zero them, halos included, with
  /// clear_all(threads): each of `threads` threads first-touches one z-slab
  /// of every array, so the pages sit where an engine on the same thread
  /// split reads them.  threads == 1 zeroes inline and starts no thread.
  explicit FieldSet(const Layout& layout, int threads = 1);
  /// Allocate all 40 arrays without writing them; the contents are
  /// unspecified until clear_all().  For pools whose borrowers clear every
  /// set they take (thiim::BorrowedState), so a fresh set is not zeroed
  /// twice (at allocation and again on borrow).
  FieldSet(const Layout& layout, Uninitialized);

  const Layout& layout() const { return layout_; }

  Field& field(kernels::Comp c) { return fields_[kernels::idx(c)]; }
  const Field& field(kernels::Comp c) const { return fields_[kernels::idx(c)]; }

  Field& coeff_t(kernels::Comp c) { return coeff_t_[kernels::idx(c)]; }
  const Field& coeff_t(kernels::Comp c) const { return coeff_t_[kernels::idx(c)]; }

  Field& coeff_c(kernels::Comp c) { return coeff_c_[kernels::idx(c)]; }
  const Field& coeff_c(kernels::Comp c) const { return coeff_c_[kernels::idx(c)]; }

  /// Source array by src_index (0..3); see kernels::kSourceNames.
  Field& source(int src_index) { return sources_.at(src_index); }
  const Field& source(int src_index) const { return sources_.at(src_index); }

  /// Source array for a component, or nullptr when it has none.
  Field* source_for(kernels::Comp c);
  const Field* source_for(kernels::Comp c) const;

  // The clears below zero whole padded z-planes (interior and halo) split
  // into z-slabs over `threads` threads (clamped to nz), the contiguous
  // split the naive engine runs; threads == 1 starts no thread.

  /// Zero all 12 field arrays (coefficients and sources untouched).
  void clear_fields(int threads = 1);

  /// Zero the 4 source arrays.
  void clear_sources(int threads = 1);

  /// Zero all 40 arrays (fields, coefficients and sources, interior and
  /// halo) — bitwise the state of a freshly constructed FieldSet, so pooled
  /// sets can be recycled across simulations without allocator churn.
  void clear_all(int threads = 1);

  /// Copy the 12 field arrays from another set (layouts must match).
  void copy_fields_from(const FieldSet& other);

  /// Shard-view slicing: copy `count` z-planes of the 12 field arrays from
  /// `src` planes [k_src, ...) into [k_dst, ...).  See
  /// Field::copy_z_planes_from for plane semantics; layouts may differ in nz.
  void copy_field_planes_from(const FieldSet& src, int k_src, int k_dst, int count);

  /// Same plane copy for the 28 static arrays (24 coefficients + 4 sources).
  /// Partitioner::scatter calls it on every multi-shard run(): a prepared
  /// sharded engine may be handed a FieldSet with the same extents but a
  /// different scene, so its statics cannot be copied only once.
  void copy_static_planes_from(const FieldSet& src, int k_src, int k_dst, int count);

  /// Max abs elementwise difference over all 12 field arrays.
  static double max_field_diff(const FieldSet& a, const FieldSet& b);

  /// Number of domain-sized arrays (paper: 12 + 28 = 40).
  static constexpr int num_arrays() { return 40; }

  /// Bytes of state per logical grid cell (paper: 16 * 40 = 640).
  static constexpr std::size_t bytes_per_cell() { return 16u * num_arrays(); }

  /// Total allocated bytes (including halo padding).
  std::size_t allocated_bytes() const;

  XBoundary x_boundary() const { return x_boundary_; }
  void set_x_boundary(XBoundary bc) { x_boundary_ = bc; }

 private:
  Layout layout_{};
  XBoundary x_boundary_ = XBoundary::Dirichlet;
  std::array<Field, kernels::kNumComps> fields_;
  std::array<Field, kernels::kNumComps> coeff_t_;
  std::array<Field, kernels::kNumComps> coeff_c_;
  std::array<Field, kernels::kNumSources> sources_;
};

}  // namespace emwd::grid
