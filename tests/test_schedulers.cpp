// Baseline scheduler policies (Table VI): each runs a small stream to
// completion; policy-specific behaviours are asserted where observable.
#include <gtest/gtest.h>

#include <iomanip>
#include <memory>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "exp/experiment.h"
#include "loadgen/generator.h"
#include "sched/common.h"
#include "sched/cur_sched.h"
#include "sched/driver.h"
#include "sched/fair_sched.h"
#include "sched/full_profile.h"
#include "sched/part_profile.h"
#include "workloads/suite.h"

namespace vmlp::sched {
namespace {

DriverParams test_params() {
  DriverParams p;
  p.horizon = 10 * kSec;
  p.cluster.machine_count = 10;
  p.machines_per_rack = 5;
  p.seed = 77;
  return p;
}

std::vector<loadgen::Arrival> small_stream(const app::Application& application, double qps,
                                           SimTime horizon) {
  loadgen::PatternParams pp;
  pp.horizon = horizon;
  pp.base_rate = qps;
  pp.max_rate = qps * 4;
  pp.peak_time = horizon / 2;
  const auto pattern = loadgen::WorkloadPattern::make(loadgen::PatternKind::kL1Pulse, pp, 3);
  Rng rng(3);
  return loadgen::generate_arrivals(pattern, loadgen::RequestMix::all(application), rng);
}

template <typename Scheduler>
RunResult run_baseline(Scheduler& sched) {
  auto application = workloads::make_benchmark_suite();
  SimulationDriver driver(*application, sched, test_params());
  driver.load_arrivals(small_stream(*application, 12.0, test_params().horizon));
  return driver.run();
}

TEST(FairSched, CompletesStream) {
  FairSched sched;
  const RunResult r = run_baseline(sched);
  EXPECT_GT(r.arrived, 100u);
  EXPECT_GT(static_cast<double>(r.completed), 0.95 * static_cast<double>(r.arrived));
  EXPECT_EQ(sched.name(), "FairSched");
}

TEST(CurSched, CompletesStream) {
  CurSched sched;
  const RunResult r = run_baseline(sched);
  EXPECT_GT(static_cast<double>(r.completed), 0.95 * static_cast<double>(r.arrived));
  EXPECT_EQ(sched.name(), "CurSched");
}

TEST(PartProfile, CompletesStream) {
  PartProfile sched;
  const RunResult r = run_baseline(sched);
  EXPECT_GT(static_cast<double>(r.completed), 0.95 * static_cast<double>(r.arrived));
  EXPECT_EQ(sched.name(), "PartProfile");
}

TEST(FullProfile, CompletesStream) {
  FullProfile sched;
  const RunResult r = run_baseline(sched);
  EXPECT_GT(static_cast<double>(r.completed), 0.9 * static_cast<double>(r.arrived));
  EXPECT_EQ(sched.name(), "FullProfile");
}

TEST(SchedCommon, MachineFewestContainers) {
  cluster::ClusterParams cp;
  cp.machine_count = 3;
  cluster::Cluster clustr(cp);
  clustr.machine(MachineId(0)).add_container(ContainerId(0), InstanceId(0), {1, 1, 1}, {1, 1, 1});
  clustr.machine(MachineId(1)).add_container(ContainerId(1), InstanceId(1), {1, 1, 1}, {1, 1, 1});
  EXPECT_EQ(machine_fewest_containers(clustr), MachineId(2));
}

TEST(SchedCommon, MachineLowestUtilization) {
  cluster::ClusterParams cp;
  cp.machine_count = 2;
  cp.machine_capacity = {1000, 1000, 1000};
  cluster::Cluster clustr(cp);
  clustr.machine(MachineId(0)).add_container(ContainerId(0), InstanceId(0), {500, 0, 0},
                                             {500, 0, 0});
  EXPECT_EQ(machine_lowest_utilization(clustr), MachineId(1));
}

TEST(SchedCommon, FirstFitSkipsBusyMachines) {
  cluster::ClusterParams cp;
  cp.machine_count = 3;
  cp.machine_capacity = {1000, 1000, 1000};
  cluster::Cluster clustr(cp);
  clustr.machine(MachineId(0)).ledger().reserve(0, 1000, {900, 0, 0});
  clustr.machine(MachineId(1)).ledger().reserve(0, 1000, {900, 0, 0});
  EXPECT_EQ(machine_first_fit(clustr, 0, 500, {200, 0, 0}), MachineId(2));
  EXPECT_FALSE(machine_first_fit(clustr, 0, 500, {2000, 0, 0}).valid());
}

TEST(SchedCommon, BestFitPrefersSpareCapacity) {
  cluster::ClusterParams cp;
  cp.machine_count = 2;
  cp.machine_capacity = {1000, 1000, 1000};
  cluster::Cluster clustr(cp);
  clustr.machine(MachineId(0)).ledger().reserve(0, 1000, {600, 0, 0});
  EXPECT_EQ(machine_best_fit(clustr, 0, 500, {100, 0, 0}), MachineId(1));
}

TEST(Baselines, FairSchedDegradesUnderLoadMoreThanPartProfile) {
  // Crank the load: contention-blind fair sharing must violate more than
  // profile-based admission (the Fig. 10 ordering between scheme families).
  auto run_scheme = [](IScheduler& sched) {
    auto application = workloads::make_benchmark_suite();
    DriverParams p = test_params();
    p.cluster.machine_count = 6;
    SimulationDriver driver(*application, sched, p);
    driver.load_arrivals(small_stream(*application, 50.0, p.horizon));
    return driver.run();
  };
  FairSched fair;
  PartProfile part;
  const RunResult fair_result = run_scheme(fair);
  const RunResult part_result = run_scheme(part);
  EXPECT_GT(fair_result.p99_latency_us, part_result.p99_latency_us);
}

// Decision pins for the four Table VI baselines: each scheme's RunResult on a
// small saturated 10-machine config, failures off and on, hashed (64-bit
// FNV-1a of the full-precision text of every simulated field). The digests
// were recorded before the baselines shared one ready-queue harness; a change
// that is meant to move a baseline decision re-records them and says why.
exp::ExperimentConfig baseline_pin_config(exp::SchemeKind scheme, bool failures) {
  exp::ExperimentConfig c;
  c.scheme = scheme;
  c.pattern = loadgen::PatternKind::kL2Fluctuating;
  c.stream = exp::StreamKind::kMixed;
  c.seed = 2022;
  c.driver.horizon = 4 * kSec;
  c.driver.cluster.machine_count = 10;
  c.driver.interference.enabled = true;
  c.pattern_params.horizon = c.driver.horizon;
  c.pattern_params.base_rate = 100.0;
  c.pattern_params.max_rate = 300.0;
  c.pattern_params.peak_time = c.driver.horizon * 2 / 5;
  if (failures) {
    c.driver.failure.enabled = true;
    c.driver.failure.crashes_per_second = 0.5;
    c.driver.failure.recovery_mean = 500 * kMsec;
    c.driver.failure.container_fault_prob = 0.05;
    c.driver.failure.invocation_timeout = 800 * kMsec;
  }
  return c;
}

std::string run_result_digest(const RunResult& r) {
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
  std::ostringstream hex;
  hex << std::hex << std::setw(16) << std::setfill('0') << hash_label(os.str());
  return hex.str();
}

struct BaselinePin {
  exp::SchemeKind scheme;
  const char* digest;
};

void expect_pinned(bool failures, const std::vector<BaselinePin>& pins) {
  for (const BaselinePin& pin : pins) {
    const auto r = exp::run_experiment(baseline_pin_config(pin.scheme, failures));
    EXPECT_GT(r.run.placements, 0u) << exp::scheme_name(pin.scheme);
    if (failures) {
      EXPECT_GT(r.run.machine_crashes, 0u) << exp::scheme_name(pin.scheme);
    }
    EXPECT_EQ(run_result_digest(r.run), pin.digest) << exp::scheme_name(pin.scheme);
  }
}

TEST(Baselines, DecisionsMatchPinnedDigests) {
  expect_pinned(false, {{exp::SchemeKind::kFairSched, "a4fefdeba91215da"},
                        {exp::SchemeKind::kCurSched, "2180995744b47a46"},
                        {exp::SchemeKind::kPartProfile, "e5ca2732988c9219"},
                        {exp::SchemeKind::kFullProfile, "81b0bd49a155cd40"}});
}

TEST(Baselines, DecisionsUnderFailuresMatchPinnedDigests) {
  expect_pinned(true, {{exp::SchemeKind::kFairSched, "81290674f1833d27"},
                       {exp::SchemeKind::kCurSched, "4db80dd688b091ab"},
                       {exp::SchemeKind::kPartProfile, "e18671a373785135"},
                       {exp::SchemeKind::kFullProfile, "ab3fde0fcd3653e3"}});
}

}  // namespace
}  // namespace vmlp::sched
