// perfbench: the repo benchmark's measuring binary. perfbench/run.py builds
// it and runs
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--expect-digest HEX]
//
// Host side: a closed loop of whole simulation runs in one process, until S
// seconds have passed (at least one iteration). Simulated side: open-loop
// Poisson arrivals on the workload's L1/L2/L3 rate curve. Every run is
// checked (no throw, arrived = completed + unfinished, same digest on every
// iteration), and one extra run at the default seed is compared with the
// digest pinned in perfbench/workloads.json.
//
// --trace 0 prints the end-to-end metrics, measured untraced. --trace 1 runs
// untraced and traced passes of the same seed alternately and prints the
// per-layer metrics. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/simd.h"
#include "harness.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace vmlp::perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  std::string expect_digest;  ///< empty: the pinned comparison is skipped
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = std::stoi(value);
    } else if (flag == "--expect-digest") {
      a.expect_digest = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace must be 0 or 1");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Peak resident set of this process in MB (ru_maxrss, the kernel's VmHWM).
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Attempted and failed runs, with the reason for every failure on stderr.
class Tally {
 public:
  /// Run `body` as one attempt; a throw or a false return is a failure.
  void attempt(const std::string& what, const std::function<bool(std::string&)>& body) {
    ++attempted_;
    std::string why;
    bool ok = false;
    try {
      ok = body(why);
    } catch (const std::exception& e) {
      why = std::string("threw: ") + e.what();
    }
    if (!ok) {
      ++failed_;
      std::cerr << "perfbench: FAILED " << what << ": " << why << '\n';
    }
  }
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Named metrics in print order.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
  void print_json(bool correct, const Tally& tally) const {
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << tally.attempted() << ", \"failed\": " << tally.failed()
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      os << (i == 0 ? "" : ", ") << '"' << items_[i].name << "\": {\"value\": "
         << items_[i].value << ", \"unit\": \"" << items_[i].unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
  }
  void print_table() const {
    for (const Item& m : items_) {
      std::printf("perfbench: %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

const char* env_or_unset(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : "unset";
}

void print_environment(const Args& a) {
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.seconds, a.trace);
  std::printf(
      "perfbench: hardware_concurrency=%u build=%s simd=%s VMLP_NO_SIMD=%s "
      "VMLP_SIMD_TARGET=%s\n",
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      simd::target_name(simd::active_target()), env_or_unset("VMLP_NO_SIMD"),
      env_or_unset("VMLP_SIMD_TARGET"));
}

void print_input(const Workload& w, std::size_t cells, std::size_t arrivals_per_iteration) {
  std::printf(
      "perfbench: input machines=%zu cells=%zu horizon_s=%g trials=%zu threads=%zu "
      "arrivals_per_iteration=%zu arrivals=%s loop=closed host / open simulated\n",
      w.config.driver.cluster.machine_count, cells,
      static_cast<double>(w.config.driver.horizon) / kSec, w.trials, w.threads,
      arrivals_per_iteration, w.config.stream_arrivals ? "streamed" : "bulk");
}

/// Checks one single-run result; `want` empty accepts any digest.
bool check_run(const sched::RunResult& r, const std::string& want, std::string& why) {
  if (!accounting_holds(r)) {
    why = "arrived " + std::to_string(r.arrived) + " != completed " +
          std::to_string(r.completed) + " + unfinished " + std::to_string(r.unfinished);
    return false;
  }
  if (!want.empty() && digest(r) != want) {
    why = "digest " + digest(r) + " != " + want;
    return false;
  }
  return true;
}

bool check_set(const exp::TrialSetResult& set, const std::string& want, std::string& why) {
  for (const exp::TrialRow& row : set.trials) {
    if (!check_run(row.run, "", why)) {
      why = "trial " + std::to_string(row.index) + ": " + why;
      return false;
    }
  }
  if (!want.empty() && digest(set) != want) {
    why = "digest " + digest(set) + " != " + want;
    return false;
  }
  return true;
}

/// The extra run at the default seed whose digest perfbench/workloads.json
/// pins. Skipped when no digest is given (recording a new one).
void check_pinned(const Workload& w, const Args& a, Tally& tally) {
  std::string got;
  tally.attempt("pinned run at seed " + std::to_string(kDefaultSeed), [&](std::string& why) {
    if (w.sweep) {
      const auto set = exp::run_trials(sweep_spec(w, kDefaultSeed), w.threads);
      got = digest(set);
      return check_set(set, a.expect_digest, why);
    }
    const RunOutcome o = run_once(w.config, kDefaultSeed, false);
    got = digest(o.run);
    return check_run(o.run, a.expect_digest, why);
  });
  std::printf("perfbench: pinned_digest=%s expected=%s\n", got.c_str(),
              a.expect_digest.empty() ? "none" : a.expect_digest.c_str());
}

/// Keeps running `iteration` until `seconds` have passed (at least once).
/// With `rotate`, iteration i is pinned to the i-th CPU of the process's
/// affinity mask, round robin, so every run samples all CPUs alike instead
/// of staying on whichever one the first iteration landed on; the mask is
/// restored afterwards. Sweeps do not rotate: their pool threads inherit the
/// caller's affinity.
void closed_loop(double seconds, bool rotate, const std::function<void()>& iteration) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (rotate && sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
  }
  const auto start = Clock::now();
  std::size_t i = 0;
  do {
    if (cpus.size() > 1) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[i++ % cpus.size()], &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
    iteration();
  } while (seconds_since(start) < seconds);
  if (cpus.size() > 1) sched_setaffinity(0, sizeof(allowed), &allowed);
}

/// Set-up-only repetitions after each iteration, so setup_s is a median of
/// samples spread over the whole run.
constexpr int kSetupRepsPerIteration = 3;

/// Returns the run's cell count.
std::size_t measure_setup(const Workload& w, std::uint64_t seed, std::vector<double>& setup_s) {
  const std::uint64_t s = w.sweep ? exp::trial_seed(seed, 0) : seed;
  std::size_t cells = 0;
  for (int i = 0; i < kSetupRepsPerIteration; ++i) {
    const RunOutcome o = run_once(w.config, s, false, false);
    setup_s.push_back(o.setup.total());
    cells = o.cells;
  }
  return cells;
}

// ---- --trace 0: end-to-end metrics -----------------------------------------

void end_to_end(const Workload& w, const Args& a, Tally& tally, Metrics& m) {
  std::vector<double> setup_s;
  std::vector<double> req_per_s;
  std::vector<double> p99_ms;
  std::vector<double> goodput;
  std::size_t arrivals = 0;
  std::size_t cells = 0;
  std::string first;  // digest every iteration must repeat
  const std::string pinned = a.seed == kDefaultSeed ? a.expect_digest : "";
  closed_loop(a.seconds, !w.sweep, [&] {
    tally.attempt("iteration " + std::to_string(tally.attempted()), [&](std::string& why) {
      std::string got;
      bool ok = false;
      if (w.sweep) {
        const auto t = Clock::now();
        const auto set = exp::run_trials(sweep_spec(w, a.seed), w.threads);
        const double sweep_s = seconds_since(t);
        ok = check_set(set, pinned, why);
        got = digest(set);
        arrivals = set.total_arrived;
        req_per_s.push_back(ratio(static_cast<double>(set.total_arrived), sweep_s));
        p99_ms.push_back(set.p99_latency_us.mean / 1000.0);
        double goodput_sum = 0.0;
        for (const exp::TrialRow& row : set.trials) goodput_sum += row.run.goodput_rps;
        goodput.push_back(goodput_sum / static_cast<double>(set.trials.size()));
      } else {
        const RunOutcome o = run_once(w.config, a.seed, false);
        ok = check_run(o.run, pinned, why);
        got = digest(o.run);
        arrivals = o.run.arrived;
        setup_s.push_back(o.setup.total());
        req_per_s.push_back(ratio(static_cast<double>(o.run.arrived), o.run_s));
        p99_ms.push_back(o.run.p99_latency_us / 1000.0);
        goodput.push_back(o.run.goodput_rps);
      }
      std::fprintf(stderr, "perfbench: iteration %zu req_per_s=%.6g\n", req_per_s.size(),
                   req_per_s.back());
      if (ok && !first.empty() && got != first) {
        why = "digest " + got + " differs from the first iteration's " + first;
        ok = false;
      }
      if (first.empty()) first = got;
      return ok;
    });
    cells = measure_setup(w, a.seed, setup_s);
  });
  const std::size_t iterations = tally.attempted();
  const double rss_mb = peak_rss_mb();  // before the pinned run can raise it
  if (a.seed != kDefaultSeed) check_pinned(w, a, tally);
  print_input(w, cells, arrivals);
  std::printf("perfbench: iterations=%zu digest=%s\n", iterations, first.c_str());
  m.add("req_per_s", median(req_per_s), "req/s");
  m.add("setup_s", median(setup_s), "s");
  m.add("rss_peak_mb", rss_mb, "MB");
  m.add("sim_p99_ms", median(p99_ms), "ms");
  m.add("sim_goodput_rps", median(goodput), "req/s");
}

// ---- --trace 1: per-layer metrics ------------------------------------------

/// One traced pass (one run, or every trial of a sweep in order) next to
/// the untraced pass of the same seeds.
struct Pass {
  CallbackStats callbacks{};
  obs::Snapshot snapshot;
  std::size_t spans = 0;
  std::size_t critical_paths = 0;
  double critical_path_s = 0.0;
  double traced_run_s = 0.0;
  double untraced_run_s = 0.0;
  double sweep_s = 0.0;
  std::size_t placements = 0;
  std::size_t arrivals = 0;

  void add(const RunOutcome& o) {
    for (std::size_t i = 0; i < kCallbackCount; ++i) {
      callbacks[i].calls += o.trace.callbacks[i].calls;
      callbacks[i].self_s += o.trace.callbacks[i].self_s;
    }
    if (snapshot.metrics.empty()) {
      snapshot = o.trace.snapshot;
    } else {
      snapshot.merge_from(o.trace.snapshot);
    }
    spans += o.trace.spans;
    critical_paths += o.trace.critical_paths;
    critical_path_s += o.trace.critical_path_s;
    traced_run_s += o.run_s;
    placements += o.run.placements;
    arrivals += o.run.arrived;
  }

  [[nodiscard]] double policy_s() const {
    double s = 0.0;
    for (const CallbackStat& c : callbacks) s += c.self_s;
    return s;
  }

  /// Every count this pass observed: these must repeat exactly.
  [[nodiscard]] std::string counts_text() const {
    std::ostringstream os;
    os.precision(17);
    for (const CallbackStat& c : callbacks) os << c.calls << ' ';
    os << spans << ' ' << critical_paths << ' ' << placements << ' ' << arrivals << '\n';
    for (const obs::MetricSnapshot& ms : snapshot.metrics) {
      os << ms.name << '=' << ms.counter << '/' << ms.gauge << '/' << ms.hist.count << '/'
         << ms.hist.sum << '\n';
    }
    return os.str();
  }
};

/// Checks a traced run against its untraced twin and the program's own
/// counters: same digest, decorator counts equal to the driver's, phases
/// summing to latency on every extracted path.
bool check_traced(const RunOutcome& traced, const RunOutcome& untraced, std::string& why) {
  if (!check_run(traced.run, digest(untraced.run), why)) {
    why = "traced run: " + why;
    return false;
  }
  const auto& cb = traced.trace.callbacks;
  const auto& snap = traced.trace.snapshot;
  const std::uint64_t arrived = counter(snap, "driver.requests_arrived");
  const std::uint64_t lates = counter(snap, "driver.lates_fired");
  if (cb[static_cast<std::size_t>(Callback::kArrival)].calls != arrived ||
      cb[static_cast<std::size_t>(Callback::kLate)].calls != lates) {
    why = "decorator counts differ from driver.requests_arrived / driver.lates_fired";
    return false;
  }
  if (traced.trace.phase_mismatches != 0) {
    why = std::to_string(traced.trace.phase_mismatches) +
          " critical paths whose phases do not sum to latency";
    return false;
  }
  return true;
}

void per_layer(const Workload& w, const Args& a, Tally& tally, Metrics& m) {
  std::vector<Pass> passes;
  std::vector<double> suite_s;
  std::vector<double> loadgen_s;
  std::vector<double> driver_s;
  std::size_t cells = 0;
  const auto note_setup = [&](const RunOutcome& o) {
    suite_s.push_back(o.setup.suite_s);
    loadgen_s.push_back(o.setup.loadgen_s);
    driver_s.push_back(o.setup.driver_s);
    cells = o.cells;
  };
  closed_loop(a.seconds, !w.sweep, [&] {
    tally.attempt("traced pass " + std::to_string(passes.size()), [&](std::string& why) {
      Pass pass;
      std::vector<std::uint64_t> seeds{a.seed};
      std::vector<std::string> want;
      if (w.sweep) {
        const auto t = Clock::now();
        const auto set = exp::run_trials(sweep_spec(w, a.seed), w.threads);
        pass.sweep_s = seconds_since(t);
        if (!check_set(set, "", why)) return false;
        seeds.clear();
        for (const exp::TrialRow& row : set.trials) {
          seeds.push_back(row.seed);
          want.push_back(digest(row.run));
        }
      }
      std::vector<RunOutcome> untraced;
      for (std::uint64_t seed : seeds) {
        untraced.push_back(run_once(w.config, seed, false));
        note_setup(untraced.back());
        pass.untraced_run_s += untraced.back().run_s;
      }
      for (std::size_t i = 0; i < seeds.size(); ++i) {
        const RunOutcome traced = run_once(w.config, seeds[i], true);
        note_setup(traced);
        if (!check_run(untraced[i].run, i < want.size() ? want[i] : "", why)) {
          why = "sequential run " + std::to_string(i) + " differs from run_trials: " + why;
          return false;
        }
        if (!check_traced(traced, untraced[i], why)) return false;
        pass.add(traced);
        untraced[i] = {};
      }
      for (const std::string& name : w.bypassed) {
        if (counter(pass.snapshot, name) != 0) {
          why = name + " is not zero on a workload meant to bypass it";
          return false;
        }
      }
      if (!passes.empty() && pass.counts_text() != passes.front().counts_text()) {
        why = "obs-derived counts differ from the first traced pass";
        return false;
      }
      passes.push_back(std::move(pass));
      return true;
    });
  });
  check_pinned(w, a, tally);
  if (passes.empty()) passes.emplace_back();
  const Pass& first = passes.front();
  print_input(w, cells, first.arrivals);
  std::printf("perfbench: traced_passes=%zu\n", passes.size());

  const auto med = [&](const std::function<double(const Pass&)>& f) {
    std::vector<double> v;
    for (const Pass& p : passes) v.push_back(f(p));
    return median(v);
  };
  const obs::Snapshot& s = first.snapshot;
  const auto c = [&](const char* name) { return static_cast<double>(counter(s, name)); };

  // policy: the scheduler behind the IScheduler boundary.
  for (std::size_t i = 0; i < kCallbackCount; ++i) {
    const std::string base = std::string("policy.") + callback_name(static_cast<Callback>(i));
    m.add(base + ".calls", static_cast<double>(first.callbacks[i].calls), "count");
    m.add(base + ".self_s", med([i](const Pass& p) { return p.callbacks[i].self_s; }), "s");
  }
  const double policy_s = med([](const Pass& p) { return p.policy_s(); });
  const double run_s = med([](const Pass& p) { return p.traced_run_s; });
  m.add("policy.self_s", policy_s, "s");
  m.add("policy.share", med([](const Pass& p) { return ratio(p.policy_s(), p.traced_run_s); }),
        "fraction");
  m.add("policy.placements_per_s",
        med([](const Pass& p) { return ratio(static_cast<double>(p.placements), p.policy_s()); }),
        "1/s");
  // mechanism: the rest of driver.run().
  m.add("mechanism.s", med([](const Pass& p) { return p.traced_run_s - p.policy_s(); }), "s");
  m.add("mechanism.ns_per_event",
        med([&](const Pass& p) {
          return 1e9 * ratio(p.traced_run_s - p.policy_s(), c("engine.events_executed"));
        }),
        "ns");
  // sim engine.
  for (const char* name : {"engine.events_scheduled", "engine.events_executed",
                           "engine.events_cancelled", "engine.events_rescheduled"}) {
    m.add(name, c(name), "count");
  }
  m.add("engine.pending_peak", gauge(s, "engine.pending_peak"), "count");
  // cluster ledger.
  for (const char* name : {"ledger.windows_reserved", "ledger.windows_released",
                           "ledger.fits_queried", "ledger.spans_tested", "ledger.hints_hit",
                           "ledger.hints_missed"}) {
    m.add(name, c(name), "count");
  }
  m.add("ledger.segments_peak", gauge(s, "ledger.segments_peak"), "count");
  m.add("ledger.hint_hit_ratio",
        ratio(c("ledger.hints_hit"), c("ledger.hints_hit") + c("ledger.hints_missed")), "fraction");
  m.add("ledger.queries_per_placement",
        ratio(c("ledger.fits_queried") + c("ledger.spans_tested"),
              static_cast<double>(first.placements)),
        "ratio");
  // cluster topology.
  for (const char* name : {"topology.stages_routed", "topology.cells_shed", "topology.index_jumps"}) {
    m.add(name, c(name), "count");
  }
  // mlp.
  for (const char* name : {"mlp.organize_calls", "mlp.probes_spent", "mlp.probes_pruned",
                           "mlp.stages_coalesced", "mlp.orphans_relocated"}) {
    m.add(name, c(name), "count");
  }
  m.add("mlp.probes_per_placement",
        ratio(c("mlp.probes_spent"), static_cast<double>(first.placements)), "ratio");
  // sched failure handling.
  for (const char* name :
       {"failure.machines_crashed", "failure.nodes_orphaned", "failure.retries_scheduled"}) {
    m.add(name, c(name), "count");
  }
  // set-up layers, per run (per trial on a sweep).
  m.add("workloads.suite_s", median(suite_s), "s");
  m.add("loadgen.generate_s", median(loadgen_s), "s");
  m.add("loadgen.arrivals", static_cast<double>(first.arrivals), "count");
  m.add("sched.driver_ctor_s", median(driver_s), "s");
  // trace: post-run critical-path extraction over every completed request.
  m.add("trace.spans", static_cast<double>(first.spans), "count");
  m.add("trace.critical_path_s", med([](const Pass& p) { return p.critical_path_s; }), "s");
  m.add("trace.critical_path_us_per_req",
        med([](const Pass& p) {
          return 1e6 * ratio(p.critical_path_s, static_cast<double>(p.critical_paths));
        }),
        "us");
  // exp: the trial sweep against its sequential passes.
  m.add("exp.sweep_s", med([](const Pass& p) { return p.sweep_s; }), "s");
  m.add("exp.trial_run_s_sum", w.sweep ? run_s : 0.0, "s");
  m.add("exp.parallel_efficiency",
        med([&](const Pass& p) {
          return ratio(p.untraced_run_s, static_cast<double>(w.threads) * p.sweep_s);
        }),
        "fraction");
  // bench: what the decorator and obs cost.
  m.add("bench.trace_overhead",
        med([](const Pass& p) { return ratio(p.traced_run_s, p.untraced_run_s); }), "ratio");
}

int run(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  const Workload w = make_workload(a.workload);
  print_environment(a);
  Tally tally;
  Metrics m;
  if (a.trace == 0) {
    end_to_end(w, a, tally, m);
  } else {
    per_layer(w, a, tally, m);
  }
  std::printf("perfbench: attempted=%zu failed=%zu failed_share=%.6g\n", tally.attempted(),
              tally.failed(),
              ratio(static_cast<double>(tally.failed()), static_cast<double>(tally.attempted())));
  m.print_table();
  std::fflush(stdout);
  m.print_json(tally.failed() == 0, tally);
  return 0;
}

}  // namespace
}  // namespace vmlp::perfbench

int main(int argc, char** argv) {
  try {
    return vmlp::perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
