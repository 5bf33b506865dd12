#include "exp/experiment.h"

#include <utility>

#include "common/error.h"
#include "common/thread_pool.h"
#include "loadgen/generator.h"
#include "mlp/vmlp.h"
#include "sched/cur_sched.h"
#include "sched/fair_sched.h"
#include "sched/full_profile.h"
#include "sched/part_profile.h"
#include "workloads/suite.h"

namespace vmlp::exp {

const char* scheme_name(SchemeKind scheme) {
  switch (scheme) {
    case SchemeKind::kFairSched: return "FairSched";
    case SchemeKind::kCurSched: return "CurSched";
    case SchemeKind::kPartProfile: return "PartProfile";
    case SchemeKind::kFullProfile: return "FullProfile";
    case SchemeKind::kVmlp: return "v-MLP";
  }
  return "?";
}

std::vector<SchemeKind> all_schemes() {
  return {SchemeKind::kFairSched, SchemeKind::kCurSched, SchemeKind::kPartProfile,
          SchemeKind::kFullProfile, SchemeKind::kVmlp};
}

std::unique_ptr<sched::IScheduler> make_scheduler(SchemeKind scheme, const mlp::VmlpParams& vmlp,
                                                  std::uint64_t seed) {
  switch (scheme) {
    case SchemeKind::kFairSched: return std::make_unique<sched::FairSched>();
    case SchemeKind::kCurSched: return std::make_unique<sched::CurSched>();
    case SchemeKind::kPartProfile: return std::make_unique<sched::PartProfile>();
    case SchemeKind::kFullProfile: return std::make_unique<sched::FullProfile>();
    case SchemeKind::kVmlp: return std::make_unique<mlp::VmlpScheduler>(vmlp, seed);
  }
  VMLP_CHECK_MSG(false, "unknown scheme");
  return nullptr;
}

const char* stream_name(StreamKind stream) {
  switch (stream) {
    case StreamKind::kLowVr: return "low-Vr";
    case StreamKind::kMidVr: return "mid-Vr";
    case StreamKind::kHighVr: return "high-Vr";
    case StreamKind::kMixed: return "mixed";
    case StreamKind::kHighRatio: return "high-ratio";
  }
  return "?";
}

namespace {

loadgen::RequestMix make_mix(const app::Application& application, StreamKind stream,
                             double high_ratio) {
  switch (stream) {
    case StreamKind::kLowVr:
      return loadgen::RequestMix::category(application, app::VolatilityBand::kLow);
    case StreamKind::kMidVr:
      return loadgen::RequestMix::category(application, app::VolatilityBand::kMid);
    case StreamKind::kHighVr:
      return loadgen::RequestMix::category(application, app::VolatilityBand::kHigh);
    case StreamKind::kMixed:
      return loadgen::RequestMix::all(application);
    case StreamKind::kHighRatio:
      return loadgen::RequestMix::with_high_ratio(application, high_ratio);
  }
  VMLP_CHECK_MSG(false, "unknown stream kind");
  return {};
}

}  // namespace

TrialTemplate build_trial_template(const ExperimentConfig& base) {
  TrialTemplate tpl;
  tpl.application = workloads::make_benchmark_suite();
  tpl.mix = make_mix(*tpl.application, base.stream, base.high_ratio);
  return tpl;
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  return run_experiment(config, build_trial_template(config));
}

ExperimentResult run_experiment(const ExperimentConfig& config, const TrialTemplate& tpl) {
  const auto scheduler = make_scheduler(config.scheme, config.vmlp, config.seed);
  return run_experiment(config, tpl, *scheduler);
}

ExperimentResult run_experiment(const ExperimentConfig& config, const TrialTemplate& tpl,
                                sched::IScheduler& scheduler) {
  const app::Application& application = *tpl.application;

  sched::DriverParams driver_params = config.driver;
  driver_params.seed = config.seed;

  loadgen::PatternParams pattern_params = config.pattern_params;
  pattern_params.horizon = driver_params.horizon;

  const auto pattern = loadgen::WorkloadPattern::make(config.pattern, pattern_params,
                                                      Rng(config.seed).fork("pattern").seed());
  Rng arrival_rng = Rng(config.seed).fork("arrivals");

  sched::SimulationDriver driver(application, scheduler, driver_params);
  if (config.stream_arrivals) {
    // `pattern` outlives `driver` in this scope, which is all the stream's
    // borrowed pattern pointer needs.
    driver.stream_arrivals(
        loadgen::ArrivalStream(pattern, tpl.mix, std::move(arrival_rng), config.qps_scale));
  } else {
    const auto arrivals =
        loadgen::generate_arrivals(pattern, tpl.mix, arrival_rng, config.qps_scale);
    driver.load_arrivals(arrivals);
  }

  ExperimentResult result;
  result.config = config;
  result.run = driver.run();
  result.utilization_series = driver.cluster_monitor().overall_series().mean_series();
  if (const obs::Collector* c = driver.observer(); c != nullptr) {
    result.obs.enabled = true;
    result.obs.snapshot = c->snapshot();
    result.obs.decisions = c->events().ordered();
    result.obs.decisions_dropped = c->events().dropped();
    result.obs.policy_slices = c->policy_slices();
    result.obs.policy_slices_dropped = c->policy_slices_dropped();
    // A release-on-completion run recycles span slots in place, so the flat
    // span view no longer exists (Tracer::spans() throws); the capture is
    // for post-run analysis, which that mode gives up by design.
    if (!driver_params.trace_release_completed) {
      result.obs.spans = driver.tracer().spans();
    }
    for (const trace::RequestRecord* rec : driver.tracer().requests()) {
      result.obs.request_records.push_back(*rec);
    }
  }
  return result;
}

std::vector<ExperimentResult> run_grid(const std::vector<ExperimentConfig>& grid,
                                       std::size_t threads) {
  std::vector<ExperimentResult> results(grid.size());
  ThreadPool pool(threads);
  pool.parallel_for(0, grid.size(),
                    [&](std::size_t i) { results[i] = run_experiment(grid[i]); });
  return results;
}

}  // namespace vmlp::exp
