#include "harness.h"

#include <iomanip>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/rng.h"
#include "loadgen/generator.h"
#include "loadgen/patterns.h"
#include "trace/critical_path.h"

namespace vmlp::perfbench {

namespace {

/// The paper's evaluation cell as bench/bench_common.h's eval_config builds
/// it: a 100-machine cluster whose pattern peaks at 2/5 of the horizon. A
/// copy, so the benchmark's inputs change only when perfbench/ does.
exp::ExperimentConfig eval_config(exp::SchemeKind scheme, loadgen::PatternKind pattern,
                                  exp::StreamKind stream, SimTime horizon) {
  exp::ExperimentConfig c;
  c.scheme = scheme;
  c.pattern = pattern;
  c.stream = stream;
  c.seed = kDefaultSeed;
  c.driver.horizon = horizon;
  c.driver.cluster.machine_count = 100;
  c.pattern_params.horizon = horizon;
  c.pattern_params.peak_time = horizon * 2 / 5;
  return c;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"paper_cell", "scale_1k_stream",
                                                  "fault_sweep_t4"};
  return kNames;
}

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "paper_cell") {
    // One 100-machine cell under v-MLP at the paper's stock rates: admission
    // planning and ledger reads dominate. L3, not L2: L2's random walk is
    // drawn from the seed, so its offered load would change with --seed.
    w.config = eval_config(exp::SchemeKind::kVmlp, loadgen::PatternKind::kL3Periodic,
                           exp::StreamKind::kHighVr, 40 * kSec);
    w.bypassed = {"topology.stages_routed"};
  } else if (name == "scale_1k_stream") {
    // 1,000 machines auto-split into 4 cells at the paper's per-machine load
    // density (rates x10), streamed arrivals, no spans: mechanism and ledger
    // writes dominate.
    w.config = eval_config(exp::SchemeKind::kVmlp, loadgen::PatternKind::kL1Pulse,
                           exp::StreamKind::kMixed, 20 * kSec);
    w.config.driver.cluster.machine_count = 1000;
    w.config.driver.cluster.topology.cells = 0;
    w.config.stream_arrivals = true;
    w.config.driver.trace_spans = false;
    w.config.pattern_params.base_rate *= 10.0;
    w.config.pattern_params.max_rate *= 10.0;
  } else if (name == "fault_sweep_t4") {
    // 24 seed-split FairSched trials on a 4-thread pool with crashes and
    // interference: the ledger is written but never read, v-MLP is off.
    w.config = eval_config(exp::SchemeKind::kFairSched, loadgen::PatternKind::kL3Periodic,
                           exp::StreamKind::kMixed, 20 * kSec);
    w.config.driver.cluster.machine_count = 48;
    w.config.qps_scale = 0.48;
    w.config.driver.failure.enabled = true;
    w.config.driver.failure.crashes_per_second = 1.0;
    w.config.driver.failure.recovery_mean = 500 * kMsec;
    w.config.driver.interference.enabled = true;
    w.sweep = true;
    w.trials = 24;
    w.threads = 4;
    w.bypassed = {"ledger.fits_queried", "mlp.probes_spent"};
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

exp::TrialSpec sweep_spec(const Workload& w, std::uint64_t base_seed) {
  exp::TrialSpec spec;
  spec.base = w.config;
  spec.trials = w.trials;
  spec.base_seed = base_seed;
  return spec;
}

std::string canonical_text(const sched::RunResult& r) {
  std::ostringstream os;
  os << std::setprecision(17) << "arrived=" << r.arrived << " completed=" << r.completed
     << " unfinished=" << r.unfinished << " qos=" << r.qos_violation_rate
     << " util=" << r.mean_utilization << " p50=" << r.p50_latency_us
     << " p90=" << r.p90_latency_us << " p99=" << r.p99_latency_us
     << " mean=" << r.mean_latency_us << " thr=" << r.throughput_rps
     << " placements=" << r.placements << " crashes=" << r.machine_crashes
     << " faults=" << r.container_faults << " timeouts=" << r.invocation_timeouts
     << " orphaned=" << r.orphaned_nodes << " retries=" << r.retries
     << " abandoned=" << r.abandoned_requests << " orphan_mean=" << r.orphaned_mean_latency_us
     << " orphan_p99=" << r.orphaned_p99_latency_us << " goodput=" << r.goodput_rps;
  return os.str();
}

std::string digest_of(const std::string& text) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << h;
  return os.str();
}

std::string digest(const exp::TrialSetResult& set) {
  std::string text;
  for (const exp::TrialRow& row : set.trials) {
    text += "trial " + std::to_string(row.index) + " seed=" + std::to_string(row.seed) + ": " +
            canonical_text(row.run) + '\n';
  }
  return digest_of(text);
}

const char* callback_name(Callback cb) {
  switch (cb) {
    case Callback::kArrival: return "arrival";
    case Callback::kUnblocked: return "unblocked";
    case Callback::kTick: return "tick";
    case Callback::kLate: return "late";
    case Callback::kOrphaned: return "orphaned";
    case Callback::kStarted: return "started";
    case Callback::kFinished: return "finished";
    case Callback::kRequestFinished: return "request_finished";
  }
  return "?";
}

RunOutcome run_once(const exp::ExperimentConfig& config, std::uint64_t seed, bool traced,
                    bool execute) {
  RunOutcome out;

  // The steps of exp::run_experiment(config), in its order.
  auto t = Clock::now();
  const exp::TrialTemplate tpl = exp::build_trial_template(config);
  const app::Application& application = *tpl.application;
  out.setup.suite_s = seconds_since(t);

  t = Clock::now();
  sched::DriverParams driver_params = config.driver;
  driver_params.seed = seed;
  driver_params.obs.enabled = driver_params.obs.enabled || traced;
  loadgen::PatternParams pattern_params = config.pattern_params;
  pattern_params.horizon = driver_params.horizon;
  const auto pattern = loadgen::WorkloadPattern::make(config.pattern, pattern_params,
                                                      Rng(seed).fork("pattern").seed());
  Rng arrival_rng = Rng(seed).fork("arrivals");
  std::optional<loadgen::ArrivalStream> stream;
  std::vector<loadgen::Arrival> arrivals;
  if (config.stream_arrivals) {
    stream.emplace(pattern, tpl.mix, std::move(arrival_rng), config.qps_scale);
  } else {
    arrivals = loadgen::generate_arrivals(pattern, tpl.mix, arrival_rng, config.qps_scale);
  }
  out.setup.loadgen_s = seconds_since(t);

  t = Clock::now();
  auto scheduler = exp::make_scheduler(config.scheme, config.vmlp, seed);
  TimedScheduler timed(*scheduler);
  sched::SimulationDriver driver(application, traced ? timed : *scheduler, driver_params);
  if (stream) {
    driver.stream_arrivals(std::move(*stream));
  } else {
    driver.load_arrivals(arrivals);
    arrivals = {};
  }
  out.setup.driver_s = seconds_since(t);
  out.cells = driver.cluster().cells().cell_count();
  if (!execute) return out;

  t = Clock::now();
  out.run = driver.run();
  out.run_s = seconds_since(t);

  if (traced) {
    TraceCapture& cap = out.trace;
    cap.callbacks = timed.stats();
    cap.snapshot = driver.observer()->snapshot();
    if (driver_params.trace_spans && !driver_params.trace_release_completed) {
      const trace::Tracer& tracer = driver.tracer();
      cap.spans = tracer.spans().size();
      t = Clock::now();
      for (const trace::RequestRecord* rec : tracer.requests()) {
        if (!rec->finished()) continue;
        const app::Dag& dag = application.request(rec->type).dag();
        const auto path = trace::extract_critical_path(*rec, tracer.spans_of(rec->id), &dag);
        ++cap.critical_paths;
        if (path.phase_sum() != rec->latency()) ++cap.phase_mismatches;
      }
      cap.critical_path_s = seconds_since(t);
    }
  }
  return out;
}

std::uint64_t counter(const obs::Snapshot& s, const std::string& name) {
  const obs::MetricSnapshot* m = s.find(name);
  return m != nullptr && m->kind == obs::MetricKind::kCounter ? m->counter : 0;
}

double gauge(const obs::Snapshot& s, const std::string& name) {
  const obs::MetricSnapshot* m = s.find(name);
  return m != nullptr && m->kind == obs::MetricKind::kGauge ? m->gauge : 0.0;
}

}  // namespace vmlp::perfbench
