// Machine descriptions for the performance model.
//
// `haswell18` reproduces the paper's testbed (18-core Xeon E5-2699 v3,
// 2.3 GHz, 45 MiB shared L3, ~50 GB/s applicable memory bandwidth, Turbo
// and CoD off).  `host_machine()` builds a description of the machine we
// are actually running on: detected cores and caches, guessed bandwidth
// and single-core rate.
#pragma once

#include <cstdint>
#include <string>

namespace emwd::models {

struct Machine {
  std::string name = "generic";
  int cores = 1;
  double bandwidth_bytes_per_s = 20e9;
  std::uint64_t llc_bytes = 8ull << 20;
  double ghz = 2.0;
  /// Single-core update rate (MLUP/s) when fully decoupled from DRAM, i.e.
  /// running from cache.  Calibrated by measurement or derived from the
  /// paper's data in emulation mode.
  double pcore_mlups = 8.0;
  /// Parallel efficiency drag per extra thread for tiled engines (barriers,
  /// queue contention); the paper observes ~75 % efficiency at 18 threads.
  double sync_drag = 0.02;
};

/// The paper's 18-core Haswell EP testbed.
Machine haswell18();

/// This host: detected core count and caches; bandwidth and pcore are
/// fixed guesses (a caller that measured the core rate can store it with
/// calibrate_pcore() in perf_model).
Machine host_machine();

}  // namespace emwd::models
