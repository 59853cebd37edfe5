#include "grid/fieldset.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "exec/thread_pool.hpp"

namespace emwd::grid {

namespace {

template <std::size_t N>
void append(std::vector<Field*>& out, std::array<Field, N>& arrays) {
  for (auto& f : arrays) out.push_back(&f);
}

/// Zero every padded z-plane of `arrays`.  Thread r takes interior planes
/// split_range(nz, parts, r); the first and last threads also take the
/// halo planes below and above.
void clear_in_slabs(const Layout& L, const std::vector<Field*>& arrays, int threads) {
  const int nz = L.nz();
  const int h = L.halo();
  const int parts = std::clamp(threads, 1, std::max(nz, 1));
  exec::ThreadTeam::run(parts, [&](int r) {
    const exec::Chunk zc = exec::split_range(nz, parts, r);
    const int k0 = r == 0 ? -h : zc.begin;
    const int k1 = r == parts - 1 ? nz + h : zc.end;
    for (Field* f : arrays) f->clear_z_planes(k0, k1 - k0);
  });
}

}  // namespace

FieldSet::FieldSet(const Layout& layout, int threads)
    : FieldSet(layout, kUninitialized) {
  clear_all(threads);
}

FieldSet::FieldSet(const Layout& layout, Uninitialized) : layout_(layout) {
  for (auto& f : fields_) f = Field(layout, kUninitialized);
  for (auto& f : coeff_t_) f = Field(layout, kUninitialized);
  for (auto& f : coeff_c_) f = Field(layout, kUninitialized);
  for (auto& f : sources_) f = Field(layout, kUninitialized);
}

Field* FieldSet::source_for(kernels::Comp c) {
  const int s = kernels::info(c).src_index;
  return s >= 0 ? &sources_[static_cast<std::size_t>(s)] : nullptr;
}

const Field* FieldSet::source_for(kernels::Comp c) const {
  const int s = kernels::info(c).src_index;
  return s >= 0 ? &sources_[static_cast<std::size_t>(s)] : nullptr;
}

void FieldSet::clear_fields(int threads) {
  std::vector<Field*> arrays;
  append(arrays, fields_);
  clear_in_slabs(layout_, arrays, threads);
}

void FieldSet::clear_sources(int threads) {
  std::vector<Field*> arrays;
  append(arrays, sources_);
  clear_in_slabs(layout_, arrays, threads);
}

void FieldSet::clear_all(int threads) {
  std::vector<Field*> arrays;
  append(arrays, fields_);
  append(arrays, coeff_t_);
  append(arrays, coeff_c_);
  append(arrays, sources_);
  clear_in_slabs(layout_, arrays, threads);
}

void FieldSet::copy_fields_from(const FieldSet& other) {
  if (!(layout_ == other.layout_)) {
    throw std::invalid_argument("copy_fields_from: layout mismatch");
  }
  for (int c = 0; c < kernels::kNumComps; ++c) fields_[c] = other.fields_[c];
}

void FieldSet::copy_field_planes_from(const FieldSet& src, int k_src, int k_dst,
                                      int count) {
  for (int c = 0; c < kernels::kNumComps; ++c) {
    fields_[c].copy_z_planes_from(src.fields_[c], k_src, k_dst, count);
  }
}

void FieldSet::copy_static_planes_from(const FieldSet& src, int k_src, int k_dst,
                                       int count) {
  for (int c = 0; c < kernels::kNumComps; ++c) {
    coeff_t_[c].copy_z_planes_from(src.coeff_t_[c], k_src, k_dst, count);
    coeff_c_[c].copy_z_planes_from(src.coeff_c_[c], k_src, k_dst, count);
  }
  for (int s = 0; s < kernels::kNumSources; ++s) {
    sources_[s].copy_z_planes_from(src.sources_[s], k_src, k_dst, count);
  }
}

double FieldSet::max_field_diff(const FieldSet& a, const FieldSet& b) {
  double worst = 0.0;
  for (int c = 0; c < kernels::kNumComps; ++c) {
    worst = std::max(worst, Field::max_abs_diff(a.fields_[c], b.fields_[c]));
  }
  return worst;
}

std::size_t FieldSet::allocated_bytes() const {
  std::size_t total = 0;
  for (const auto& f : fields_) total += f.size_bytes();
  for (const auto& f : coeff_t_) total += f.size_bytes();
  for (const auto& f : coeff_c_) total += f.size_bytes();
  for (const auto& f : sources_) total += f.size_bytes();
  return total;
}

}  // namespace emwd::grid
