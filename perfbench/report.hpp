// Shared plumbing of the benchmark driver: the result record every
// workload fills, order statistics, host facts and the field hash.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "grid/fieldset.hpp"

namespace perfbench {

/// Command-line inputs of one run (see main.cpp).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  // Chrome trace written here when `trace`
  std::string work_dir;    // scratch directory inside the checkout
  std::string self_exe;    // this binary, for the fleet daemon child
};

/// One run's outcome.  Printed as the last stdout line; run.py turns it
/// into the contract line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Free-form provenance (resolved spec, ISA, budget, sample counts).
  void info(const std::string& key, const std::string& value);
  void info(const std::string& key, double value);
  /// Count one operation; `ok` means it succeeded and passed its check.
  void op(bool ok, const std::string& what);
  /// Count `n` operations of which `failed` did not pass.
  void ops(long n, long failed, const std::string& what);

  long attempted() const { return attempted_; }
  long failed() const { return failed_; }
  double ok_frac() const;
  std::string to_json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;  // key, JSON value
  long attempted_ = 0;
  long failed_ = 0;
};

/// Linear-interpolated quantile q in [0, 1] (sorts a copy).
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Engine thread budget: one core is left to the harness and the OS.
int thread_budget();

/// Bind the process (and every thread it starts later) to the last
/// thread_budget() cpus it may run on, leaving the first to the harness
/// and the OS.  Fixes which vCPUs the engine threads share run to run.
void bind_to_budget();

/// Resident-set high-water mark (VmHWM) of `pid` ("self" by default), MB.
double peak_rss_mb(const std::string& pid = "self");

/// FNV-1a (over 64-bit words) of the interior of all twelve field components: equal hashes
/// mean bit-identical states.
std::uint64_t field_hash(const emwd::grid::FieldSet& fs);

/// Seconds on the steady clock.
double now_s();

/// Deterministic generator for workload inputs (splitmix64: identical
/// sequences on every platform and standard library).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n).
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t state_;
};

std::string hex64(std::uint64_t v);

void run_solve(const Options& opt, Report& report);  // solve and sharded
void run_fleet(const Options& opt, Report& report);
int run_daemon(int argc, char** argv);               // fleet daemon child

/// Host calibration for the traced run: triad bandwidth and the
/// single-core row-kernel rate.
struct Calibration {
  double triad_gbs = 0.0;
  double row_mcells_s = 0.0;
};
Calibration calibrate(Report& report);

}  // namespace perfbench
