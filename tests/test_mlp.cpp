// v-MLP core: metrics, self-organizing planning, self-healing, the full
// scheduler, and ablation switches.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/error.h"
#include "loadgen/generator.h"
#include "mlp/metrics.h"
#include "mlp/vmlp.h"
#include "sched/driver.h"
#include "sched/fair_sched.h"
#include "workloads/suite.h"

namespace vmlp::mlp {
namespace {

TEST(Metrics, XPercentBounds) {
  for (double v : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    for (SimDuration slo : {10 * kMsec, 100 * kMsec, kSec}) {
      const double x = x_percent(v, slo, kSec);
      EXPECT_GE(x, 1.0);
      EXPECT_LE(x, 100.0);
    }
  }
}

TEST(Metrics, XGrowsWithVolatilityAndSlaTightness) {
  EXPECT_LT(x_percent(0.2, kSec, kSec), x_percent(0.8, kSec, kSec));
  EXPECT_LE(x_percent(0.5, kSec, kSec), x_percent(0.5, 500 * kMsec, kSec));
}

TEST(Metrics, XValidation) {
  EXPECT_THROW(x_percent(0.5, 0, kSec), InvariantError);
  EXPECT_THROW(x_percent(0.5, 2 * kSec, kSec), InvariantError);
  EXPECT_THROW(x_percent(1.5, kSec, kSec), InvariantError);
}

TEST(Metrics, ReorderRatioInUnitInterval) {
  for (SimDuration waited : {0LL, 1000LL, 100000LL, 10000000LL}) {
    const double r = reorder_ratio(0.5, 500 * kMsec, waited, 10 * kMsec, 10 * kMsec);
    EXPECT_GT(r, 0.0);
    EXPECT_LT(r, 1.0);
  }
}

TEST(Metrics, ReorderRatioMonotonicities) {
  const SimDuration slo = 500 * kMsec;
  const SimDuration dt0 = 10 * kMsec;
  const SimDuration ref = 10 * kMsec;
  // Higher volatility -> higher priority.
  EXPECT_LT(reorder_ratio(0.2, slo, kMsec, dt0, ref), reorder_ratio(0.9, slo, kMsec, dt0, ref));
  // Longer waiting (FCFS term) -> higher priority.
  EXPECT_LT(reorder_ratio(0.5, slo, kMsec, dt0, ref),
            reorder_ratio(0.5, slo, 50 * kMsec, dt0, ref));
  // Tighter SLA -> higher priority.
  EXPECT_GT(reorder_ratio(0.5, 100 * kMsec, kMsec, dt0, ref),
            reorder_ratio(0.5, kSec, kMsec, dt0, ref));
  // Shorter job (SJF term) -> higher priority.
  EXPECT_GT(reorder_ratio(0.5, slo, kMsec, 5 * kMsec, ref),
            reorder_ratio(0.5, slo, kMsec, 50 * kMsec, ref));
}

TEST(Metrics, EstimateSlackBandBehaviour) {
  trace::ProfileStore profiles;
  const ServiceTypeId svc(0);
  const RequestTypeId req(0);
  // History: 99 fast cases and one slow outlier.
  for (int i = 0; i < 99; ++i) profiles.record(svc, req, {{1, 1, 1}, 0.1, 10 * kMsec});
  profiles.record(svc, req, {{1, 1, 1}, 0.1, 80 * kMsec});

  VmlpParams params;
  // Low band: the historical maximum slack.
  const auto low = estimate_slack(profiles, svc, req, 0.1, 100.0, kMsec, params);
  EXPECT_EQ(low, 80 * kMsec);
  // Mid band: the 50% latency — dominated by the fast mass.
  const auto mid = estimate_slack(profiles, svc, req, 0.5, 100.0, kMsec, params);
  EXPECT_NEAR(static_cast<double>(mid), 10.0 * kMsec, 0.5 * kMsec);
  // High band: the 99% latency — pulled toward the outlier.
  const auto high = estimate_slack(profiles, svc, req, 0.9, 100.0, kMsec, params);
  EXPECT_GT(high, mid);
}

TEST(Metrics, EstimateSlackFallsBack) {
  trace::ProfileStore profiles;
  VmlpParams params;
  EXPECT_EQ(estimate_slack(profiles, ServiceTypeId(1), RequestTypeId(1), 0.5, 50.0, 7 * kMsec,
                           params),
            7 * kMsec);
}

TEST(Metrics, VolatilityBlindUsesMean) {
  trace::ProfileStore profiles;
  const ServiceTypeId svc(0);
  const RequestTypeId req(0);
  for (int i = 0; i < 10; ++i) profiles.record(svc, req, {{1, 1, 1}, 0.1, 10 * kMsec});
  profiles.record(svc, req, {{1, 1, 1}, 0.1, 120 * kMsec});
  VmlpParams params;
  params.volatility_aware = false;
  // Mean regardless of the band (the ablation path).
  const auto low = estimate_slack(profiles, svc, req, 0.1, 100.0, kMsec, params);
  const auto high = estimate_slack(profiles, svc, req, 0.95, 100.0, kMsec, params);
  EXPECT_EQ(low, high);
  EXPECT_LT(low, 40 * kMsec);
}

// ---- end-to-end v-MLP ------------------------------------------------

sched::DriverParams vmlp_test_params() {
  sched::DriverParams p;
  p.horizon = 10 * kSec;
  p.cluster.machine_count = 10;
  p.machines_per_rack = 5;
  p.seed = 55;
  return p;
}

std::vector<loadgen::Arrival> make_stream(const app::Application& application, double rate,
                                          SimTime horizon) {
  loadgen::PatternParams pp;
  pp.horizon = horizon;
  pp.base_rate = rate;
  pp.max_rate = rate * 4;
  pp.peak_time = horizon / 2;
  const auto pattern = loadgen::WorkloadPattern::make(loadgen::PatternKind::kL2Fluctuating, pp, 3);
  Rng rng(3);
  return loadgen::generate_arrivals(pattern, loadgen::RequestMix::all(application), rng);
}

/// Constructs a VmlpScheduler with one field broken and expects an
/// InvariantError that names the field.
template <typename Mutate>
void expect_rejected(Mutate mutate, const std::string& field) {
  VmlpParams params;
  mutate(params);
  try {
    VmlpScheduler scheduler(params);
    ADD_FAILURE() << field << ": construction accepted an invalid value";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("VmlpParams::" + field), std::string::npos) << e.what();
  }
}

TEST(VmlpParamsValidation, RejectsZeroPlanSearchSteps) {
  expect_rejected([](VmlpParams& p) { p.plan_search_steps = 0; }, "plan_search_steps");
}

TEST(VmlpParamsValidation, RejectsZeroAdmitProbes) {
  expect_rejected([](VmlpParams& p) { p.max_admit_probes = 0; }, "max_admit_probes");
}

TEST(VmlpParamsValidation, RejectsZeroChainChoices) {
  expect_rejected([](VmlpParams& p) { p.max_chain_choices = 0; }, "max_chain_choices");
}

TEST(VmlpParamsValidation, RejectsZeroFailedChains) {
  expect_rejected([](VmlpParams& p) { p.max_failed_chains = 0; }, "max_failed_chains");
}

TEST(VmlpParamsValidation, RejectsMidQuantileOutsideUnitInterval) {
  expect_rejected([](VmlpParams& p) { p.mid_quantile = 1.5; }, "mid_quantile");
  expect_rejected([](VmlpParams& p) { p.mid_quantile = -0.1; }, "mid_quantile");
}

TEST(VmlpParamsValidation, RejectsHighQuantileOutsideUnitInterval) {
  expect_rejected([](VmlpParams& p) { p.high_quantile = 1.01; }, "high_quantile");
  expect_rejected([](VmlpParams& p) { p.high_quantile = -1.0; }, "high_quantile");
}

TEST(Vmlp, CompletesStream) {
  auto application = workloads::make_benchmark_suite();
  VmlpScheduler sched;
  sched::SimulationDriver driver(*application, sched, vmlp_test_params());
  driver.load_arrivals(make_stream(*application, 12.0, vmlp_test_params().horizon));
  const sched::RunResult r = driver.run();
  EXPECT_GT(r.arrived, 100u);
  EXPECT_GT(static_cast<double>(r.completed), 0.95 * static_cast<double>(r.arrived));
  EXPECT_EQ(sched.name(), "v-MLP");
  EXPECT_GT(sched.organizer()->plans_committed(), 0u);
}

TEST(Vmlp, PlansWholeChainsUpFront) {
  auto application = workloads::make_benchmark_suite();
  VmlpScheduler sched;
  sched::SimulationDriver driver(*application, sched, vmlp_test_params());
  // One compose-post request: all 9 nodes must be placed at admission.
  const auto type = *application->find_request("compose-post");
  driver.load_arrivals({{kMsec, type}});

  bool checked = false;
  // Verify after the arrival by piggybacking on the tick event.
  driver.load_arrivals({});  // no-op; assertion happens post-run via spans
  const sched::RunResult r = driver.run();
  EXPECT_EQ(r.completed, 1u);
  const auto spans = driver.tracer().spans_of(RequestId(0));
  EXPECT_EQ(spans.size(), 9u);
  checked = true;
  EXPECT_TRUE(checked);
}

TEST(Vmlp, SpanCausalityHolds) {
  auto application = workloads::make_benchmark_suite();
  VmlpScheduler sched;
  sched::SimulationDriver driver(*application, sched, vmlp_test_params());
  driver.load_arrivals(make_stream(*application, 8.0, vmlp_test_params().horizon));
  driver.run();
  // For every request: spans of dependent stages never overlap out of order.
  for (const auto* rec : driver.tracer().requests()) {
    if (!rec->finished()) continue;
    const auto& rt = application->request(rec->type);
    const auto spans = driver.tracer().spans_of(rec->id);
    if (spans.size() != rt.size()) continue;
    // Map service -> span (node services are unique within our request types).
    for (const auto& [from, to] : rt.dag().edges()) {
      const trace::Span* parent = nullptr;
      const trace::Span* child = nullptr;
      for (const auto* s : spans) {
        if (s->service == rt.nodes()[from].service) parent = s;
        if (s->service == rt.nodes()[to].service) child = s;
      }
      if (parent != nullptr && child != nullptr) {
        EXPECT_GE(child->start, parent->end) << "request " << rec->id.value();
      }
    }
  }
}

TEST(Vmlp, DeterministicAcrossRuns) {
  auto run_once = [] {
    auto application = workloads::make_benchmark_suite();
    VmlpScheduler sched;
    sched::SimulationDriver driver(*application, sched, vmlp_test_params());
    driver.load_arrivals(make_stream(*application, 10.0, vmlp_test_params().horizon));
    return driver.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_DOUBLE_EQ(a.p99_latency_us, b.p99_latency_us);
  EXPECT_DOUBLE_EQ(a.mean_utilization, b.mean_utilization);
}

TEST(Vmlp, AblationFlagsChangeBehaviour) {
  auto run_with = [](VmlpParams params) {
    auto application = workloads::make_benchmark_suite();
    VmlpScheduler sched(params);
    sched::SimulationDriver driver(*application, sched, vmlp_test_params());
    driver.load_arrivals(make_stream(*application, 24.0, vmlp_test_params().horizon));
    const auto r = driver.run();
    return std::make_pair(r, driver.counters());
  };
  VmlpParams volatility_blind;
  volatility_blind.volatility_aware = false;
  const auto [blind_result, blind_counters] = run_with(volatility_blind);
  const auto [aware_result, aware_counters] = run_with(VmlpParams{});
  // The two configurations must actually schedule differently.
  EXPECT_NE(blind_result.p99_latency_us, aware_result.p99_latency_us);
  (void)blind_counters;
  (void)aware_counters;
}

TEST(Vmlp, HealingDisabledStillCorrect) {
  VmlpParams params;
  params.enable_delay_slot = false;
  params.enable_resource_stretch = false;
  auto application = workloads::make_benchmark_suite();
  VmlpScheduler sched(params);
  sched::SimulationDriver driver(*application, sched, vmlp_test_params());
  driver.load_arrivals(make_stream(*application, 16.0, vmlp_test_params().horizon));
  const auto r = driver.run();
  EXPECT_GT(static_cast<double>(r.completed), 0.9 * static_cast<double>(r.arrived));
  EXPECT_EQ(sched.healer()->delay_slot_fills(), 0u);
  EXPECT_EQ(sched.healer()->stretches(), 0u);
}

TEST(Vmlp, OutperformsSimpleSchedulersOnHighVolatilityTail) {
  // The paper's headline (Fig. 13): under volatile streams and load, v-MLP's
  // tail beats contention-blind scheduling by a wide margin.
  auto run_scheme = [](sched::IScheduler& sched) {
    auto application = workloads::make_benchmark_suite();
    sched::DriverParams p = vmlp_test_params();
    p.cluster.machine_count = 8;
    sched::SimulationDriver driver(*application, sched, p);
    loadgen::PatternParams pp;
    pp.horizon = p.horizon;
    pp.base_rate = 28.0;
    pp.max_rate = 65.0;
    pp.peak_time = p.horizon / 2;
    const auto pattern =
        loadgen::WorkloadPattern::make(loadgen::PatternKind::kL2Fluctuating, pp, 9);
    Rng rng(9);
    driver.load_arrivals(loadgen::generate_arrivals(
        pattern, loadgen::RequestMix::category(*application, app::VolatilityBand::kHigh), rng));
    return driver.run();
  };
  VmlpScheduler vmlp_sched;
  sched::FairSched fair_sched;
  const auto vmlp_result = run_scheme(vmlp_sched);
  const auto fair_result = run_scheme(fair_sched);
  EXPECT_LT(vmlp_result.p99_latency_us, fair_result.p99_latency_us);
  EXPECT_LE(vmlp_result.qos_violation_rate, fair_result.qos_violation_rate + 0.01);
}

}  // namespace
}  // namespace vmlp::mlp
