// Experiment harness: factory, single runs, parallel grid determinism, and
// the TimedScheduler decorator.
#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>
#include <string>

#include "exp/experiment.h"
#include "exp/timed_scheduler.h"

namespace vmlp::exp {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig c;
  c.scheme = SchemeKind::kVmlp;
  c.pattern = loadgen::PatternKind::kL1Pulse;
  c.stream = StreamKind::kMixed;
  c.seed = 3;
  c.driver.horizon = 6 * kSec;
  c.driver.cluster.machine_count = 10;
  c.pattern_params.base_rate = 16.0;
  c.pattern_params.max_rate = 48.0;
  c.pattern_params.peak_time = 3 * kSec;
  return c;
}

TEST(Experiment, SchemeNamesAndFactory) {
  EXPECT_EQ(all_schemes().size(), 5u);
  for (SchemeKind s : all_schemes()) {
    auto sched = make_scheduler(s);
    ASSERT_NE(sched, nullptr);
    EXPECT_EQ(sched->name(), scheme_name(s));
  }
}

TEST(Experiment, StreamNames) {
  EXPECT_STREQ(stream_name(StreamKind::kLowVr), "low-Vr");
  EXPECT_STREQ(stream_name(StreamKind::kHighRatio), "high-ratio");
}

TEST(Experiment, SingleRunProducesResults) {
  const ExperimentResult r = run_experiment(small_config());
  EXPECT_GT(r.run.arrived, 50u);
  EXPECT_GT(r.run.completed, 0u);
  EXPECT_GE(r.run.qos_violation_rate, 0.0);
  EXPECT_LE(r.run.qos_violation_rate, 1.0);
  EXPECT_FALSE(r.utilization_series.empty());
  for (double u : r.utilization_series) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

// Tier-1 canary for admission decisions: the six headline metrics of
// small_config(), pinned to the values the map-backed reference ledger with
// unpruned, unmemoized admission produced (they matched the indexed ledger
// bit for bit). tools/determinism_check claim 5 pins the full fig. 10/13
// metric streams by digest; this is the cheap tier-1 form.
TEST(Experiment, SmallConfigMatchesPinnedMetrics) {
  const auto r = run_experiment(small_config());
  EXPECT_EQ(r.run.placements, 1246u);
  EXPECT_EQ(r.run.completed, 178u);
  EXPECT_EQ(r.run.unfinished, 1u);
  EXPECT_EQ(r.run.p99_latency_us, 227977.22999999998);
  EXPECT_EQ(r.run.mean_utilization, 0.059284288194444451);
  EXPECT_EQ(r.run.qos_violation_rate, 0.0055865921787709499);
}

TEST(Experiment, SeedsChangeOutcome) {
  ExperimentConfig a = small_config();
  ExperimentConfig b = small_config();
  b.seed = 4;
  const auto ra = run_experiment(a);
  const auto rb = run_experiment(b);
  EXPECT_NE(ra.run.arrived, rb.run.arrived);
}

TEST(Experiment, QpsScaleScalesArrivals) {
  ExperimentConfig half = small_config();
  half.qps_scale = 0.5;
  const auto full = run_experiment(small_config());
  const auto halved = run_experiment(half);
  EXPECT_NEAR(static_cast<double>(halved.run.arrived) / static_cast<double>(full.run.arrived),
              0.5, 0.12);
}

TEST(Experiment, StreamsSelectCategories) {
  ExperimentConfig c = small_config();
  c.stream = StreamKind::kHighVr;
  const auto r = run_experiment(c);
  EXPECT_GT(r.run.arrived, 10u);
  c.stream = StreamKind::kHighRatio;
  c.high_ratio = 0.9;
  const auto r2 = run_experiment(c);
  EXPECT_GT(r2.run.arrived, 10u);
}

TEST(Experiment, GridMatchesSerialRuns) {
  // Parallel sweeps must be bit-identical to serial execution (one isolated
  // world per run).
  std::vector<ExperimentConfig> grid;
  for (SchemeKind s : {SchemeKind::kFairSched, SchemeKind::kVmlp}) {
    ExperimentConfig c = small_config();
    c.scheme = s;
    grid.push_back(c);
  }
  const auto parallel = run_grid(grid, 2);
  ASSERT_EQ(parallel.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto serial = run_experiment(grid[i]);
    EXPECT_EQ(parallel[i].run.completed, serial.run.completed) << i;
    EXPECT_DOUBLE_EQ(parallel[i].run.p99_latency_us, serial.run.p99_latency_us) << i;
    EXPECT_DOUBLE_EQ(parallel[i].run.mean_utilization, serial.run.mean_utilization) << i;
  }
}

TEST(Experiment, ResultConfigEchoed) {
  ExperimentConfig c = small_config();
  c.scheme = SchemeKind::kCurSched;
  const auto r = run_experiment(c);
  EXPECT_EQ(r.config.scheme, SchemeKind::kCurSched);
  EXPECT_EQ(r.config.seed, c.seed);
}


/// Every RunResult field at full precision.
std::string result_text(const sched::RunResult& r) {
  std::ostringstream os;
  os << std::setprecision(17) << r.arrived << ' ' << r.completed << ' ' << r.unfinished << ' '
     << r.qos_violation_rate << ' ' << r.mean_utilization << ' ' << r.p50_latency_us << ' '
     << r.p90_latency_us << ' ' << r.p99_latency_us << ' ' << r.mean_latency_us << ' '
     << r.throughput_rps << ' ' << r.placements << ' ' << r.machine_crashes << ' '
     << r.container_faults << ' ' << r.invocation_timeouts << ' ' << r.orphaned_nodes << ' '
     << r.retries << ' ' << r.abandoned_requests << ' ' << r.orphaned_mean_latency_us << ' '
     << r.orphaned_p99_latency_us << ' ' << r.goodput_rps;
  return os.str();
}

void expect_timing_is_invisible(const ExperimentConfig& config) {
  const TrialTemplate tpl = build_trial_template(config);
  const ExperimentResult plain = run_experiment(config, tpl);
  const auto inner = make_scheduler(config.scheme, config.vmlp, config.seed);
  TimedScheduler timed(*inner);
  const ExperimentResult wrapped = run_experiment(config, tpl, timed);

  EXPECT_EQ(result_text(wrapped.run), result_text(plain.run));
  EXPECT_EQ(wrapped.utilization_series, plain.utilization_series);
  EXPECT_EQ(timed.name(), inner->name());
  EXPECT_GT(timed.seconds(), 0.0);
  ASSERT_TRUE(wrapped.obs.enabled);
  const auto counter = [&](const char* name) {
    const obs::MetricSnapshot* m = wrapped.obs.snapshot.find(name);
    return m != nullptr ? m->counter : ~std::uint64_t{0};
  };
  EXPECT_EQ(timed.stat(obs::PolicyCallback::kArrival).calls, counter("driver.requests_arrived"));
  EXPECT_EQ(timed.stat(obs::PolicyCallback::kLateInvocation).calls, counter("driver.lates_fired"));
  EXPECT_GT(timed.stat(obs::PolicyCallback::kLateInvocation).calls, 0u);
  // With a collector attached, the decorator fills the host-clock policy
  // lane; the bare driver records none.
  EXPECT_FALSE(wrapped.obs.policy_slices.empty());
  EXPECT_TRUE(plain.obs.policy_slices.empty());
}

TEST(TimedScheduler, VmlpRunIsByteIdenticalWrapped) {
  ExperimentConfig c = small_config();
  c.driver.obs.enabled = true;
  expect_timing_is_invisible(c);
}

TEST(TimedScheduler, FairSchedCrashRunIsByteIdenticalWrapped) {
  ExperimentConfig c = small_config();
  c.scheme = SchemeKind::kFairSched;
  c.driver.failure.enabled = true;
  c.driver.failure.crashes_per_second = 1.0;
  c.driver.obs.enabled = true;
  expect_timing_is_invisible(c);
}

}  // namespace
}  // namespace vmlp::exp
