// Host calibration for the roofline fractions of the traced run: a triad
// for the memory roof and the single-core row-kernel rate for the core
// roof, both measured here rather than taken from models::host_machine().
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "grid/fieldset.hpp"
#include "kernels/update.hpp"
#include "obs/trace.hpp"
#include "report.hpp"
#include "util/machine_detect.hpp"

namespace perfbench {

namespace {

using namespace emwd;

/// a = b + s*c with `threads` threads, each array >= 4x the LLC so every
/// pass streams from DRAM.  Counts 24 B per element (STREAM convention: no
/// write-allocate traffic).
double triad_gbs(int threads, Report& report) {
  const std::size_t llc = util::detect_host().l3_bytes;
  const std::size_t n = 4 * llc / sizeof(double) + 1;
  report.info("llc_mb", static_cast<double>(llc) / (1 << 20));
  report.info("triad_array_mb", static_cast<double>(n * sizeof(double)) / (1 << 20));
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]), c(new double[n]);

  auto parallel = [&](auto&& body) {
    std::vector<std::thread> team;
    for (int t = 0; t < threads; ++t) {
      team.emplace_back([&, t] {
        body(n * t / threads, n * (t + 1) / threads);
      });
    }
    for (std::thread& th : team) th.join();
  };
  // First touch by the owning thread, then one untimed pass.
  parallel([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  const double s = 3.0;
  auto pass = [&] {
    parallel([&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + s * c[i];
    });
  };
  pass();
  constexpr int kPasses = 5;
  const double t0 = now_s();
  for (int p = 0; p < kPasses; ++p) pass();
  const double dt = now_s() - t0;
  if (a[n / 2] != 7.0) std::fprintf(stderr, "perfbench: triad result wrong\n");
  return 24.0 * static_cast<double>(n) * kPasses / dt / 1e9;
}

/// update_comp_row over every row and component of a grid small enough to
/// stay in the per-core cache, one thread: P_core in component-cells/s.
double row_mcells_s() {
  const grid::Extents e{64, 8, 16};  // 8k cells x 640 B = 5.2 MB
  grid::FieldSet fs((grid::Layout(e)));
  auto sweep = [&] {
    for (const kernels::CompInfo& ci : kernels::kComps) {
      for (int k = 0; k < e.nz; ++k) {
        for (int j = 0; j < e.ny; ++j) kernels::update_comp_row(fs, ci.self, 0, e.nx, j, k);
      }
    }
  };
  for (int i = 0; i < 200; ++i) sweep();
  constexpr int kSweeps = 4000;
  const double t0 = now_s();
  for (int i = 0; i < kSweeps; ++i) sweep();
  const double dt = now_s() - t0;
  return static_cast<double>(e.cells()) * kernels::kNumComps * kSweeps / dt / 1e6;
}

}  // namespace

Calibration calibrate(Report& report) {
  OBS_SPAN("bench.calibrate");
  Calibration c;
  c.triad_gbs = triad_gbs(thread_budget(), report);
  c.row_mcells_s = row_mcells_s();
  report.info("triad_gbs", c.triad_gbs);
  report.info("row_mcells_s", c.row_mcells_s);
  return c;
}

}  // namespace perfbench
