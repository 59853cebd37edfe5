// solve / sharded workloads: one memory-resident solar-cell scene advanced
// by the engine a user's spec resolves to, checked bit for bit against the
// naive engine on the same scene and budget.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "em/geometry.hpp"
#include "exec/engine_registry.hpp"
#include "exec/engine_spec.hpp"
#include "models/code_balance.hpp"
#include "obs/trace.hpp"
#include "report.hpp"
#include "thiim/simulation.hpp"
#include "trace_pieces.hpp"
#include "tune/autotuner.hpp"

namespace perfbench {

namespace {

using namespace emwd;

// 128x128x192 cells x 40 arrays x 16 B = 2.0 GB of state: several times
// any LLC this benchmark is meant for, the paper's memory-resident regime.
constexpr grid::Extents kGrid{128, 128, 192};
constexpr int kPml = 6;
// Steps per Simulation::run call: run_until_converged's default check
// cadence, the way THIIM runs in production.  The warm-up is one call of
// the same length, so MWD's tiling/DAG cache (keyed on the step count) and
// the sharded engine's prepared shard state exist before timing starts.
constexpr int kChunk = 10;
// Production setups per run; setup_s is their median.
constexpr int kSetups = 3;

struct SceneInputs {
  double wavelength_cells = 24.0;
  std::uint64_t texture_seed = 7;
};

SceneInputs make_scene(std::uint64_t seed) {
  Rng rng(seed);
  SceneInputs s;
  s.wavelength_cells = rng.uniform(16.0, 30.0);  // ~400..750 nm at 25 nm cells
  s.texture_seed = rng.next();
  return s;
}

thiim::SimulationConfig sim_config(const SceneInputs& s, const std::string& spec,
                                   int threads) {
  thiim::SimulationConfig cfg;
  cfg.grid = kGrid;
  cfg.wavelength_cells = s.wavelength_cells;
  cfg.pml.thickness = kPml;
  cfg.x_boundary = grid::XBoundary::Periodic;
  cfg.engine_spec = spec;
  cfg.threads = threads;
  return cfg;
}

/// The spectrum_sweep stack: Ag back reflector, textured uc-Si, a-Si, TCO;
/// plane wave injected below the upper PML.
void paint_and_finalize(thiim::Simulation& sim, const SceneInputs& s) {
  const int nz = kGrid.nz;
  auto& mats = sim.materials();
  const auto ag = mats.add(em::silver());
  const auto ucsi = mats.add(em::microcrystalline_silicon());
  const auto asi = mats.add(em::amorphous_silicon());
  const auto tco = mats.add(em::tco());
  em::GeometryBuilder g(mats);
  g.layer(ag, 0, nz / 8);
  g.textured_layer(ucsi, nz / 8, nz * 3 / 8,
                   em::GeometryBuilder::rough_texture(2.0, 5.0, s.texture_seed));
  g.layer(asi, nz * 3 / 8 + 2, nz / 2);
  g.layer(tco, nz / 2, nz * 9 / 16);
  sim.finalize();
  sim.add_plane_wave(em::SourceField::Ex, nz - kPml - 2, {1.0, 0.0});
}

struct Setup {
  std::unique_ptr<thiim::Simulation> sim;
  std::string spec;  // resolved, fully pinned
  double seconds = 0.0;
};

/// Spec resolution + construction + finalize + one warm-up chunk: what a
/// user waits for before the first timed step.
Setup set_up(const SceneInputs& scene, const std::string& user_spec, int threads) {
  Setup s;
  const double t0 = now_s();
  {
    OBS_SPAN("bench.resolve");
    exec::BuildContext ctx;
    ctx.grid = kGrid;
    ctx.threads = threads;
    s.spec = exec::to_string(
        tune::resolve_auto_spec(exec::parse_engine_spec(user_spec), ctx));
  }
  {
    OBS_SPAN("bench.construct");
    s.sim = std::make_unique<thiim::Simulation>(sim_config(scene, s.spec, threads));
  }
  {
    OBS_SPAN("bench.finalize");
    paint_and_finalize(*s.sim, scene);
  }
  {
    OBS_SPAN("bench.warmup");
    s.sim->run(kChunk);
  }
  s.seconds = now_s() - t0;
  return s;
}

struct Timed {
  double seconds = 0.0;       // wall of the timed run() calls
  double traced_seconds = 0.0;
  double untraced_seconds = 0.0;
  exec::EngineStats stats;    // merged over the timed calls
  std::uint64_t hash = 0;
};

/// `chunks` timed run() calls.  With a recorder, every other call runs with
/// tracing disarmed so the traced run can price the tracer itself.
Timed run_timed(thiim::Simulation& sim, int chunks, TracePieces* pieces) {
  Timed t;
  for (int c = 0; c < chunks; ++c) {
    const bool untraced = pieces && c % 2 == 1;
    if (untraced) pieces->pause();
    const double t0 = now_s();
    {
      OBS_SPAN("bench.run", kChunk);
      sim.run(kChunk);
    }
    const double dt = now_s() - t0;
    if (untraced) pieces->resume();
    t.seconds += dt;
    (untraced ? t.untraced_seconds : t.traced_seconds) += dt;
    t.stats.merge(sim.last_stats());
  }
  {
    OBS_SPAN("bench.hash");
    t.hash = field_hash(sim.fields());
  }
  return t;
}

double mlups(double seconds, int chunks) {
  return static_cast<double>(kGrid.cells()) * kChunk * chunks / seconds / 1e6;
}

}  // namespace

void run_solve(const Options& opt, Report& report) {
  const bool sharded = opt.workload == "sharded";
  const std::string user_spec = sharded ? "sharded(inner=auto)" : "auto";
  const int threads = thread_budget();
  const SceneInputs scene = make_scene(opt.seed);
  // Fixed work per run: the step count depends only on --seconds, so the
  // exact counters (tiles, barrier episodes, halo bytes) repeat run to run.
  const int chunks = std::max(2, static_cast<int>(opt.seconds + 0.5));

  report.info("workload", opt.workload);
  report.info("seed", static_cast<double>(opt.seed));
  report.info("threads", threads);
  report.info("grid", "128x128x192");
  report.info("state_mb", static_cast<double>(kGrid.cells()) * 640.0 / 1e6);
  report.info("wavelength_cells", scene.wavelength_cells);
  report.info("user_spec", user_spec);
  report.info("timed_steps", chunks * kChunk);

  Calibration cal;
  if (opt.trace) cal = calibrate(report);
  std::unique_ptr<TracePieces> pieces;
  if (opt.trace) pieces = std::make_unique<TracePieces>(opt.trace_path);

  // --- production engine: kSetups setups, the last one is timed --------
  std::vector<double> setup_s;
  std::string plan;
  Setup prod;
  for (int i = 0; i < kSetups; ++i) {
    prod = Setup{};  // free the previous 2 GB before allocating the next
    OBS_SPAN("bench.setup", i);
    prod = set_up(scene, user_spec, threads);
    setup_s.push_back(prod.seconds);
    if (i == 0) plan = prod.spec;
    report.op(prod.spec == plan, "resolved plan " + prod.spec + " differs from " + plan);
  }
  const Timed fast = run_timed(*prod.sim, chunks, pieces.get());
  {
    OBS_SPAN("bench.observables");
    report.info("total_energy", prod.sim->total_energy());
    double absorbed = 0.0;
    for (double a : prod.sim->absorption_by_material()) absorbed += a;
    report.info("absorption_total", absorbed);
  }
  const exec::EngineStats fs = fast.stats;
  prod = Setup{};

  // --- naive reference on the same scene and budget --------------------
  Timed ref;
  {
    OBS_SPAN("bench.reference");
    thiim::Simulation naive(sim_config(scene, "naive", threads));
    paint_and_finalize(naive, scene);
    naive.run(kChunk);
    ref = run_timed(naive, chunks, nullptr);
  }
  report.op(fast.hash == ref.hash, "final field hash " + hex64(fast.hash) +
                                       " != naive reference " + hex64(ref.hash));

  report.info("resolved_spec", plan);
  report.info("kernel_isa", fs.kernel_isa);
  report.info("field_hash", hex64(fast.hash));
  report.info("reference_hash", hex64(ref.hash));
  report.info("setup_samples", kSetups);
  report.info("request_samples", 1);

  const double solve = mlups(fast.seconds, chunks);
  const double naive = mlups(ref.seconds, chunks);
  if (!opt.trace) {
    report.metric("solve_mlups", solve, "MLUP/s");
    report.metric("naive_mlups", naive, "MLUP/s");
    report.metric("setup_s", median(setup_s), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    // A single-solve workload serves one request, the timed solve: its
    // percentiles and rate restate solve_mlups (see README).
    report.metric("request_p50_s", fast.seconds, "s");
    report.metric("request_p90_s", fast.seconds, "s");
    report.metric("jobs_per_s", 1.0 / fast.seconds, "1/s");
    report.metric("ops_ok_frac", report.ok_frac(), "frac");
    return;
  }

  // --- per-layer numbers (traced run) -----------------------------------
  const double team_s = fast.seconds * threads;
  const double pcore_mlups = cal.row_mcells_s / kernels::kNumComps;
  const double core_roof = pcore_mlups * threads;
  const double bw = cal.triad_gbs * 1e9;
  const double naive_roof =
      std::min(models::pmem_mlups(bw, models::naive_bytes_per_lup()), core_roof);
  report.metric("exec.naive.roofline_frac", naive / naive_roof, "frac");
  const exec::EngineSpec resolved = exec::parse_engine_spec(plan);
  const exec::EngineSpec* mwd = &resolved;
  std::optional<exec::EngineSpec> inner = resolved.child("inner");
  if (inner) mwd = &*inner;
  if (mwd->kind == "mwd") {
    const int dw = static_cast<int>(mwd->get_int("dw", 4));
    const double mwd_roof = std::min(
        models::pmem_mlups(bw, models::diamond_bytes_per_lup(dw)), core_roof);
    report.metric("exec.mwd.roofline_frac", solve / mwd_roof, "frac");
  }
  report.metric("exec.mwd.barrier_wait_frac", fs.barrier_wait_seconds / team_s, "frac");
  report.metric("exec.mwd.queue_wait_frac", fs.queue_wait_seconds / team_s, "frac");
  report.metric("exec.mwd.barrier_episodes", static_cast<double>(fs.barrier_episodes),
                "count");
  report.metric("exec.mwd.tiles", static_cast<double>(fs.tiles_executed), "count");
  if (sharded) {
    const double steps = static_cast<double>(chunks) * kChunk;
    report.metric("dist.halo_exposed_frac",
                  fs.halo_exposed_seconds() / team_s, "frac");
    report.metric("dist.halo_wait_s", fs.halo_wait_seconds, "s");
    report.metric("dist.halo_stage_s", fs.halo_stage_seconds, "s");
    report.metric("dist.halo_unstage_s", fs.halo_unstage_seconds, "s");
    report.metric("dist.halo_bytes_per_step",
                  static_cast<double>(fs.halo_bytes_moved) / steps, "B");
    report.metric("dist.useful_lup_frac",
                  static_cast<double>(kGrid.cells()) * steps /
                      static_cast<double>(fs.lups),
                  "frac");
  }
  const double untraced = mlups(fast.untraced_seconds, chunks / 2);
  const double traced = mlups(fast.traced_seconds, chunks - chunks / 2);
  report.metric("obs.trace_overhead_frac", (untraced - traced) / untraced, "frac");
  report.metric("kernels.row_mcells_s", cal.row_mcells_s, "Mcell/s");
  report.metric("models.triad_gbs", cal.triad_gbs, "GB/s");
  pieces->finish();
}

}  // namespace perfbench
