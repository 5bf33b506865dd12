// perfbench self-test: the benchmark's hand-wired timed path is the program
// users run. For every workload, at a short horizon:
//  * run_once, plain and with TimedScheduler + obs, gives RunResults whose
//    canonical text equals exp::run_experiment's (bulk and streamed
//    arrivals are both covered: scale_1k_stream streams);
//  * the decorator's counts equal the driver's own counters
//    (policy.arrival.calls = driver.requests_arrived, policy.late.calls =
//    driver.lates_fired);
//  * for the sweep, exp::run_trials' rows equal sequential run_once calls.
// Run it with `python3 perfbench/run.py --selftest`; exits 0 on PASS.
#include <cstdio>
#include <exception>
#include <string>

#include "harness.h"

namespace vmlp::perfbench {
namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

exp::ExperimentConfig shortened(exp::ExperimentConfig c, SimTime horizon) {
  c.driver.horizon = horizon;
  c.pattern_params.horizon = horizon;
  c.pattern_params.peak_time = horizon * 2 / 5;
  return c;
}

void check_single(const std::string& label, const exp::ExperimentConfig& config,
                  std::uint64_t seed) {
  exp::ExperimentConfig reference = config;
  reference.seed = seed;
  const std::string want = canonical_text(exp::run_experiment(reference).run);
  const RunOutcome plain = run_once(config, seed, false);
  const RunOutcome traced = run_once(config, seed, true);
  expect(canonical_text(plain.run) == want, label + ": plain run_once == run_experiment");
  expect(canonical_text(traced.run) == want, label + ": decorated run_once == run_experiment");
  const auto& cb = traced.trace.callbacks;
  const std::uint64_t arrivals = cb[static_cast<std::size_t>(Callback::kArrival)].calls;
  const std::uint64_t lates = cb[static_cast<std::size_t>(Callback::kLate)].calls;
  expect(arrivals == counter(traced.trace.snapshot, "driver.requests_arrived") && arrivals > 0,
         label + ": policy.arrival.calls == driver.requests_arrived (" +
             std::to_string(arrivals) + ")");
  expect(lates == counter(traced.trace.snapshot, "driver.lates_fired"),
         label + ": policy.late.calls == driver.lates_fired (" + std::to_string(lates) + ")");
  expect(traced.trace.phase_mismatches == 0, label + ": critical-path phases sum to latency");
}

void check_sweep(const std::string& label, const Workload& w, std::uint64_t seed) {
  exp::TrialSpec spec = sweep_spec(w, seed);
  spec.trials = 4;
  const auto set = exp::run_trials(spec, w.threads);
  bool same = true;
  for (const exp::TrialRow& row : set.trials) {
    same = same && canonical_text(run_once(w.config, row.seed, true).run) ==
                       canonical_text(row.run);
  }
  expect(same, label + ": run_trials rows == sequential decorated run_once");
}

int run() {
  for (const std::string& name : workload_names()) {
    Workload w = make_workload(name);
    w.config = shortened(w.config, 2 * kSec);
    for (const std::uint64_t seed : {kDefaultSeed, std::uint64_t{7}}) {
      const std::string label = name + " seed " + std::to_string(seed);
      if (w.sweep) {
        check_sweep(label, w, seed);
        check_single(label + " trial 0", w.config, exp::trial_seed(seed, 0));
      } else {
        check_single(label, w.config, seed);
      }
    }
  }
  std::printf("perfbench_selftest: %s\n", g_failures == 0 ? "PASS" : "FAIL");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace vmlp::perfbench

int main() {
  try {
    return vmlp::perfbench::run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_selftest: %s\n", e.what());
    return 1;
  }
}
