// fleet workload: a closed loop of small seeded sweeps from one client
// process into a daemon child (serve::Server on a Unix socket), with
// status/metrics/ping reads interleaved.  Per-job overheads dominate here:
// plan cache, engine pool, coefficient build, framing and fair-share
// dispatch.  Every job's observables are compared byte for byte with an
// in-process batch::run_sweep of the same spec on the naive engine, run
// after the timed window.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "batch/sweep.hpp"
#include "obs/trace.hpp"
#include "report.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "thiim/simulation.hpp"
#include "trace_pieces.hpp"
#include "tune/autotuner.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"

namespace perfbench {

namespace {

using namespace emwd;

// Two lateral x two vertical shapes; every seed gets the same request-cost
// mix (only wavelengths, texture and order are seeded), so percentiles of
// different seeds describe the same traffic.
const grid::Extents kShapes[] = {{16, 16, 32}, {16, 16, 48}, {24, 24, 32}, {24, 24, 48}};
constexpr int kMaxLambdas = 4;
constexpr int kSteps = 40;
constexpr int kDaemonStarts = 7;  // setup_s is the median over these
// In-process reference sweeps are short; several passes steady naive_mlups.
constexpr int kReferencePasses = 3;
// Closed-loop rounds per connection and second of --seconds; one round
// sends every distinct request once, in a per-connection seeded order.
constexpr double kRoundsPerSecond = 0.7;

struct RequestSpec {
  std::string text;
  int jobs = 0;
};

std::string tables_json(std::uint64_t seed) {
  std::ostringstream os;
  os << "{\"scenes\":[{\"name\":\"bench\",\"layers\":["
     << "{\"material\":\"silver\",\"z\":[0,0.125]},"
     << "{\"material\":\"uc_si\",\"z\":[0.125,0.375],\"rough\":{\"amp\":2,\"corr\":5,"
     << "\"seed\":" << seed % (1u << 30) << "}},"
     << "{\"material\":\"a_si\",\"z\":[0.385,0.5]},"
     << "{\"material\":\"tco\",\"z\":[0.5,0.5625]}],"
     << "\"source\":{\"field\":\"Ex\",\"z\":0.85,\"amplitude\":[1,0]}}]}";
  return os.str();
}

std::string spec_text(const grid::Extents& g, const std::vector<double>& lambdas,
                      const std::string& engine) {
  std::ostringstream os;
  os << "scene=bench;grid=" << g.nx << 'x' << g.ny << 'x' << g.nz << ";lambda=";
  for (std::size_t i = 0; i < lambdas.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6f", lambdas[i]);
    os << (i ? "," : "") << buf;
  }
  os << ";steps=" << kSteps << ";engine=" << engine
     << ";threads=1;pml=4;xb=periodic";
  return os.str();
}

/// Every (shape, wavelength count) pair once; specs[0] is the cold-start
/// request.  The same seed gives the same wavelengths for either engine.
std::vector<RequestSpec> make_specs(std::uint64_t seed, const std::string& engine) {
  std::vector<RequestSpec> specs;
  Rng lambda_rng(seed);
  for (const grid::Extents& g : kShapes) {
    for (int n = 1; n <= kMaxLambdas; ++n) {
      std::vector<double> lambdas;
      for (int i = 0; i < n; ++i) lambdas.push_back(lambda_rng.uniform(16.0, 30.0));
      specs.push_back({spec_text(g, lambdas, engine), n});
    }
  }
  return specs;
}

/// The run-deterministic part of a result, as emwd-client prints it.
std::string observables(const batch::JobResult& r) {
  std::ostringstream os;
  os.precision(17);
  os << r.ok << ',' << r.steps_done << ',' << r.total_energy << ','
     << r.electric_energy;
  for (double a : r.absorption) os << ',' << a;
  return os.str();
}

std::string roundtrip(int fd, const std::string& payload) {
  if (!util::send_frame(fd, payload)) throw std::runtime_error("daemon closed");
  std::optional<std::string> reply = util::recv_frame(fd, serve::kMaxFrame);
  if (!reply) throw std::runtime_error("daemon closed");
  return *reply;
}

struct SweepReply {
  double latency_s = 0.0;
  double first_result_s = 0.0;
  std::size_t rejected = 0;
  bool error = false;
  std::map<std::size_t, batch::JobResult> results;  // by expansion index
};

SweepReply sweep(int fd, const std::string& spec, const std::string& id) {
  SweepReply out;
  const double t0 = now_s();
  const std::string request = "{\"op\":\"sweep\",\"id\":" + util::json_quote(id) +
                              ",\"spec\":" + util::json_quote(spec) + "}";
  if (!util::send_frame(fd, request)) throw std::runtime_error("daemon closed");
  for (;;) {
    std::optional<std::string> payload = util::recv_frame(fd, serve::kMaxFrame);
    if (!payload) throw std::runtime_error("daemon closed mid-sweep");
    const util::JsonValue frame = util::JsonValue::parse(*payload);
    const std::string type = frame.get_string("type", "");
    if (type == "result") {
      if (out.results.empty()) out.first_result_s = now_s() - t0;
      const util::JsonValue* r = frame.find("result");
      if (!r) throw std::runtime_error("result frame without result");
      out.results[static_cast<std::size_t>(frame.get_int("index", 0))] =
          batch::JobResult::from_json(*r);
    } else if (type == "rejected") {
      out.rejected += static_cast<std::size_t>(frame.get_int("count", 0));
    } else if (type == "error") {
      out.error = true;
      break;
    } else if (type == "done") {
      break;
    }
  }
  out.latency_s = now_s() - t0;
  return out;
}

/// The daemon child: fork + exec of this binary, ready once its socket is
/// bound (it prints one line on the pipe we hand it as stdout).
class Daemon {
 public:
  Daemon(const Options& opt, const std::string& tables, int threads, int id,
         bool traced) {
    socket_ = opt.work_dir + "/fleet" + std::to_string(id) + ".sock";
    if (traced) trace_ = opt.work_dir + "/trace-fleet-daemon.jsonl";
    int pipefd[2];
    if (::pipe(pipefd) != 0) throw std::runtime_error("pipe failed");
    const std::string thr = std::to_string(threads);
    std::vector<const char*> argv = {opt.self_exe.c_str(), "daemon",
                                     "--socket",           socket_.c_str(),
                                     "--threads",          thr.c_str(),
                                     "--tables",           tables.c_str()};
    if (!trace_.empty()) {
      argv.push_back("--trace");
      argv.push_back(trace_.c_str());
    }
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);  // never outlive the benchmark
      ::dup2(pipefd[1], STDOUT_FILENO);
      ::close(pipefd[0]);
      ::close(pipefd[1]);
      ::execv(argv[0], const_cast<char* const*>(argv.data()));
      ::_exit(127);
    }
    ::close(pipefd[1]);
    char c = 0;
    ssize_t n = 0;
    while ((n = ::read(pipefd[0], &c, 1)) == 1 && c != '\n') {
    }
    ::close(pipefd[0]);
    if (n != 1) {
      reap();
      throw std::runtime_error("fleet daemon failed to start");
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      reap();
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket() const { return socket_; }
  double peak_rss_mb() const { return perfbench::peak_rss_mb(std::to_string(pid_)); }

  /// Shutdown op, then wait; true when the daemon exited cleanly.
  bool shutdown() {
    util::UniqueFd fd = util::connect_unix(socket_);
    roundtrip(fd.get(), "{\"op\":\"shutdown\"}");
    return reap() == 0;
  }

 private:
  int reap() {
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
  }

  pid_t pid_ = -1;
  std::string socket_;
  std::string trace_;
};

/// Everything one client connection observed in the timed window.
struct ConnLog {
  std::vector<double> latency_s;
  std::vector<double> queue_wait_s;  // latency minus its longest job's wall
  std::vector<double> job_wall_s;
  std::vector<double> status_s;
  std::vector<double> ping_s;
  std::size_t rejects = 0;
  std::size_t pool_hits = 0;
  std::size_t plan_hits = 0;
  std::int64_t lups = 0;
  std::size_t status_bad = 0;
  std::size_t errors = 0;
  // (spec index, expansion index) -> observables of each returned job
  std::vector<std::tuple<std::size_t, std::size_t, std::string>> seen;
  std::set<std::string> plans;  // resolved engine specs and kernel ISAs
  std::string failure;
};

/// The status document's accounting identity.
bool status_consistent(const std::string& payload) {
  const util::JsonValue doc = util::JsonValue::parse(payload);
  const util::JsonValue* root = doc.find("status");
  const util::JsonValue& st = root ? *root : doc;
  const util::JsonValue* s = st.find("scheduler");
  if (!s) return false;
  return s->get_int("completed", -1) + s->get_int("failed", -1) +
             s->get_int("cancelled", -1) + s->get_int("queued", -1) +
             s->get_int("running", -1) ==
         s->get_int("submitted", -2);
}

void client_loop(const std::string& socket, const std::vector<RequestSpec>& specs,
                 int rounds, std::uint64_t seed, int conn, ConnLog& log) {
  try {
    util::UniqueFd fd = util::connect_unix(socket);
    Rng rng(seed);
    std::vector<std::size_t> order(specs.size());
    int n = 0;
    for (int round = 0; round < rounds; ++round) {
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
      for (std::size_t s : order) {
        const std::string id = std::to_string(conn) + ":" + std::to_string(n);
        SweepReply reply;
        {
          OBS_SPAN("bench.request", static_cast<std::int64_t>(s));
          reply = sweep(fd.get(), specs[s].text, id);
        }
        log.latency_s.push_back(reply.latency_s);
        log.rejects += reply.rejected;
        if (reply.error) ++log.errors;
        double longest = 0.0;
        for (const auto& [index, r] : reply.results) {
          longest = std::max(longest, r.wall_seconds);
          log.job_wall_s.push_back(r.wall_seconds);
          log.pool_hits += r.engine_reused;
          log.plan_hits += r.plan_cache_hit;
          log.lups += r.stats.lups;
          log.seen.emplace_back(s, index, observables(r));
          log.plans.insert(r.engine_spec + " isa=" + r.stats.kernel_isa);
        }
        log.queue_wait_s.push_back(reply.latency_s - longest);
        // Reads beside the writes: status or metrics after every request,
        // a ping after every fourth.
        const bool metrics = n % 2 == 1;
        const double t0 = now_s();
        std::string doc;
        {
          OBS_SPAN("bench.status");
          doc = roundtrip(fd.get(), metrics ? "{\"op\":\"metrics\"}" : "{\"op\":\"status\"}");
        }
        log.status_s.push_back(now_s() - t0);
        if (!status_consistent(doc)) ++log.status_bad;
        if (n % 4 == 3) {
          const double p0 = now_s();
          OBS_SPAN("bench.ping");
          const std::string pong = roundtrip(fd.get(), "{\"op\":\"ping\"}");
          log.ping_s.push_back(now_s() - p0);
          if (pong.find("pong") == std::string::npos) ++log.status_bad;
        }
        ++n;
      }
    }
  } catch (const std::exception& e) {
    log.failure = e.what();
  }
}

/// Direct construct / finalize / observables / resolve calls on each
/// fleet shape (traced run only): the per-job fixed costs behind
/// request latency, timed as benchmark spans.
void probe_job_costs(const serve::Scene& scene) {
  for (const grid::Extents& g : kShapes) {
    exec::BuildContext ctx;
    ctx.grid = g;
    ctx.threads = 1;
    std::string spec;
    {
      OBS_SPAN("bench.resolve");
      spec = exec::to_string(tune::resolve_auto_spec(exec::parse_engine_spec("auto"), ctx));
    }
    thiim::SimulationConfig cfg;
    cfg.grid = g;
    cfg.pml.thickness = 4;
    cfg.x_boundary = grid::XBoundary::Periodic;
    cfg.engine_spec = spec;
    cfg.threads = 1;
    std::unique_ptr<thiim::Simulation> sim;
    {
      OBS_SPAN("bench.construct");
      sim = std::make_unique<thiim::Simulation>(cfg);
    }
    {
      OBS_SPAN("bench.finalize");
      scene.apply(*sim);
    }
    sim->run(kSteps);
    OBS_SPAN("bench.observables");
    volatile double sink = sim->total_energy() + sim->absorption_by_material().size();
    (void)sink;
  }
}

}  // namespace

void run_fleet(const Options& opt, Report& report) {
  const int threads = thread_budget();
  const int connections = std::min(3, threads);
  const int rounds = std::max(1, static_cast<int>(opt.seconds * kRoundsPerSecond + 0.5));
  Rng rng(opt.seed);
  const std::string tables = tables_json(rng.next());
  const std::uint64_t lambda_seed = rng.next();
  const std::vector<RequestSpec> specs = make_specs(lambda_seed, "auto");
  std::size_t jobs_per_round = 0;
  for (const RequestSpec& s : specs) jobs_per_round += static_cast<std::size_t>(s.jobs);

  report.info("workload", "fleet");
  report.info("seed", static_cast<double>(opt.seed));
  report.info("threads", threads);
  report.info("connections", connections);
  report.info("distinct_requests", static_cast<double>(specs.size()));
  report.info("rounds_per_connection", rounds);
  report.info("user_spec", "auto");

  Calibration cal;
  if (opt.trace) cal = calibrate(report);
  std::unique_ptr<TracePieces> pieces;
  if (opt.trace) pieces = std::make_unique<TracePieces>(opt.trace_path);

  // --- set-up: daemon start through the first (cold) result ------------
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  std::string first_observables;
  for (int i = 0; i < kDaemonStarts; ++i) {
    if (daemon) report.op(daemon->shutdown(), "daemon shutdown");
    daemon.reset();
    OBS_SPAN("bench.setup", i);
    const double t0 = now_s();
    // Only the daemon that serves the timed window is traced.
    daemon = std::make_unique<Daemon>(opt, tables, threads, i,
                                      opt.trace && i == kDaemonStarts - 1);
    util::UniqueFd fd = util::connect_unix(daemon->socket());
    const double sent = now_s();
    const SweepReply first = sweep(fd.get(), specs[0].text, "setup");
    setup_s.push_back(sent - t0 + first.first_result_s);
    const bool ok = first.results.size() == 1 && first.results.begin()->second.ok;
    report.op(ok, "cold-start request");
    if (ok && i == 0) first_observables = observables(first.results.begin()->second);
    if (ok) {
      report.op(observables(first.results.begin()->second) == first_observables,
                "cold-start observables differ between daemon starts");
    }
  }

  // --- timed closed loop -------------------------------------------------
  std::vector<ConnLog> logs(static_cast<std::size_t>(connections));
  const double t0 = now_s();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < connections; ++c) {
      clients.emplace_back(client_loop, daemon->socket(), std::cref(specs), rounds,
                           rng.next(), c, std::ref(logs[static_cast<std::size_t>(c)]));
    }
    for (std::thread& t : clients) t.join();
  }
  const double wall = now_s() - t0;
  const double daemon_rss = daemon->peak_rss_mb();
  std::string final_status;
  {
    util::UniqueFd fd = util::connect_unix(daemon->socket());
    final_status = roundtrip(fd.get(), "{\"op\":\"status\"}");
  }
  report.op(daemon->shutdown(), "daemon shutdown");
  daemon.reset();

  ConnLog all;
  for (ConnLog& l : logs) {
    if (!l.failure.empty()) {
      report.op(false, "connection: " + l.failure);
    }
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(all.latency_s, l.latency_s);
    append(all.queue_wait_s, l.queue_wait_s);
    append(all.job_wall_s, l.job_wall_s);
    append(all.status_s, l.status_s);
    append(all.ping_s, l.ping_s);
    all.rejects += l.rejects;
    all.pool_hits += l.pool_hits;
    all.plan_hits += l.plan_hits;
    all.lups += l.lups;
    all.status_bad += l.status_bad;
    all.errors += l.errors;
    all.seen.insert(all.seen.end(), l.seen.begin(), l.seen.end());
    all.plans.insert(l.plans.begin(), l.plans.end());
  }
  const std::size_t expected_jobs =
      jobs_per_round * static_cast<std::size_t>(rounds * connections);
  report.ops(static_cast<long>(all.status_s.size() + all.ping_s.size()),
             static_cast<long>(all.status_bad), "status/metrics/ping reads");
  report.op(all.errors == 0 && all.rejects == 0, "requests rejected or refused");

  // --- correctness: in-process naive run_sweep of every distinct spec -----
  const serve::Scene scene = [&] {
    const util::JsonValue doc = util::JsonValue::parse(tables);
    return serve::Scene::from_json(doc.find("scenes")->as_array().at(0));
  }();
  const std::vector<RequestSpec> ref_specs = make_specs(lambda_seed, "naive");
  std::vector<std::vector<std::string>> expected(ref_specs.size());
  double ref_wall = 0.0;
  std::int64_t ref_lups = 0;
  {
    OBS_SPAN("bench.reference");
    for (int pass = 0; pass < kReferencePasses; ++pass) {
      for (std::size_t s = 0; s < ref_specs.size(); ++s) {
        batch::SweepConfig cfg =
            serve::to_sweep_config(serve::parse_sweep_spec(ref_specs[s].text), scene);
        cfg.scheduler.concurrency = threads;
        const batch::SweepResult r = batch::run_sweep(cfg);
        ref_wall += r.wall_seconds;
        std::vector<std::string> got;
        for (const batch::JobResult& j : r.results) {
          got.push_back(observables(j));
          ref_lups += j.stats.lups;
        }
        if (pass == 0) {
          expected[s] = std::move(got);
        } else {
          report.op(got == expected[s], "in-process reference differs between passes");
        }
      }
    }
  }
  std::size_t matched = 0;
  for (const auto& [s, index, obs] : all.seen) {
    const bool ok = index < expected[s].size() && expected[s][index] == obs;
    matched += ok;
    report.op(ok, "job observables differ from the in-process naive sweep");
  }
  report.op(all.seen.size() == expected_jobs,
            "expected " + std::to_string(expected_jobs) + " job results, got " +
                std::to_string(all.seen.size()));

  report.info("requests", static_cast<double>(all.latency_s.size()));
  report.info("jobs", static_cast<double>(all.seen.size()));
  report.info("jobs_matched_reference", static_cast<double>(matched));
  report.info("request_samples", static_cast<double>(all.latency_s.size()));
  report.info("request_samples_above_p90",
              std::floor(0.1 * static_cast<double>(all.latency_s.size())));
  report.info("setup_samples", kDaemonStarts);
  report.info("status_samples", static_cast<double>(all.status_s.size()));
  report.info("ping_samples", static_cast<double>(all.ping_s.size()));
  report.info("timed_wall_s", wall);
  std::string plans;
  for (const std::string& p : all.plans) plans += (plans.empty() ? "" : "; ") + p;
  report.info("resolved_specs", plans);

  if (!opt.trace) {
    report.metric("solve_mlups", static_cast<double>(all.lups) / wall / 1e6, "MLUP/s");
    report.metric("naive_mlups", static_cast<double>(ref_lups) / ref_wall / 1e6, "MLUP/s");
    report.metric("setup_s", median(setup_s), "s");
    report.metric("peak_rss_mb", daemon_rss, "MB");
    report.metric("request_p50_s", median(all.latency_s), "s");
    report.metric("request_p90_s", quantile(all.latency_s, 0.9), "s");
    report.metric("jobs_per_s", static_cast<double>(all.seen.size()) / wall, "1/s");
    report.metric("ops_ok_frac", report.ok_frac(), "frac");
    return;
  }

  {
    const util::JsonValue doc = util::JsonValue::parse(final_status);
    const util::JsonValue* s = doc.find("scheduler");
    report.metric("batch.retries", s ? static_cast<double>(s->get_int("retries", 0)) : 0.0,
                  "count");
  }
  const double jobs = static_cast<double>(all.seen.size());
  report.metric("batch.pool_hit_frac", static_cast<double>(all.pool_hits) / jobs, "frac");
  report.metric("batch.plan_hit_frac", static_cast<double>(all.plan_hits) / jobs, "frac");
  report.metric("batch.job_wall_s", median(all.job_wall_s), "s");
  report.metric("batch.queue_wait_s", median(all.queue_wait_s), "s");
  report.metric("serve.ping_rtt_s", median(all.ping_s), "s");
  report.metric("serve.status_s", median(all.status_s), "s");
  report.metric("serve.rejects", static_cast<double>(all.rejects), "count");
  report.metric("kernels.row_mcells_s", cal.row_mcells_s, "Mcell/s");
  report.metric("models.triad_gbs", cal.triad_gbs, "GB/s");
  probe_job_costs(scene);
  pieces->finish();
  return;
}

int run_daemon(int argc, char** argv) {
  serve::ServerConfig cfg;
  int threads = 1;
  std::string trace;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--socket") cfg.socket_path = argv[i + 1];
    if (flag == "--threads") threads = std::stoi(argv[i + 1]);
    if (flag == "--tables") cfg.initial_tables_json = argv[i + 1];
    if (flag == "--trace") trace = argv[i + 1];
  }
  // The engine budget is `threads` single-thread jobs; the pool bounds are
  // emwdd's defaults.
  cfg.scheduler.concurrency = threads;
  cfg.scheduler.threads_per_job = 1;
  cfg.scheduler.max_idle_engines = 8;
  cfg.scheduler.max_idle_fields = 16;
  ::signal(SIGPIPE, SIG_IGN);
  ::unlink(cfg.socket_path.c_str());
  if (!trace.empty()) {
    obs::TraceConfig tc;
    tc.ring_capacity = 1 << 18;
    obs::start_tracing(tc);
  }
  try {
    serve::Server server(cfg);
    std::printf("ready\n");
    std::fflush(stdout);
    server.wait_for_stop();
    server.stop();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench daemon: %s\n", e.what());
    return 1;
  }
  if (!trace.empty()) {
    obs::stop_tracing();
    if (obs::trace_stats().dropped > 0 || !obs::write_chrome_trace(trace)) return 1;
  }
  return 0;
}

}  // namespace perfbench
