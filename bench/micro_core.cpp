// Microbenchmarks (google-benchmark): hot-path substrate costs — the event
// engine, the reservation ledger, the cell topology's SIMD kernel, RNG,
// quantiles, chain-choice sampling and steady-state chain planning.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "app/dag.h"
#include "cluster/reservation.h"
#include "common/rng.h"
#include "common/simd.h"
#include "loadgen/generator.h"
#include "loadgen/patterns.h"
#include "mlp/interface_layer.h"
#include "mlp/self_organizing.h"
#include "sched/driver.h"
#include "sim/engine.h"
#include "stats/percentile.h"
#include "trace/profile_store.h"
#include "workloads/suite.h"

// Counting global allocator: BM_OrganizeSteadyState reports heap
// allocations per organize() call.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Out of line: inlined into a caller, GCC pairs the malloc/free inside with
// the new/delete expression and warns about a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace vmlp;

void BM_EngineScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    for (std::size_t i = 0; i < n; ++i) {
      engine.schedule_at(static_cast<SimTime>((i * 2654435761u) % 1000000), [] {});
    }
    engine.run_all();
    benchmark::DoNotOptimize(engine.executed_events());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1000)->Arg(10000);

void BM_EngineCancel(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    std::vector<sim::EventHandle> handles;
    handles.reserve(1000);
    for (int i = 0; i < 1000; ++i) handles.push_back(engine.schedule_at(i, [] {}));
    for (auto& h : handles) engine.cancel(h);
    engine.run_all();
    benchmark::DoNotOptimize(engine.pending_events());
  }
}
BENCHMARK(BM_EngineCancel);

void BM_LedgerReserveRelease(benchmark::State& state) {
  cluster::ReservationLedger ledger({4000, 16384, 1000});
  Rng rng(1);
  SimTime t = 0;
  for (auto _ : state) {
    const SimTime t0 = t + rng.uniform_int(0, 10000);
    const SimTime t1 = t0 + rng.uniform_int(1000, 30000);
    const cluster::ResourceVector r{static_cast<double>(rng.uniform_int(100, 2000)), 256, 50};
    ledger.reserve(t0, t1, r);
    ledger.release(t0, t1, r);
    t += 10;
    if (t > 1000000) {
      ledger.compact_before(t - 1000);
    }
  }
}
BENCHMARK(BM_LedgerReserveRelease);

void BM_LedgerFits(benchmark::State& state) {
  cluster::ReservationLedger ledger({4000, 16384, 1000});
  Rng rng(2);
  // Pre-populate a realistic profile: ~64 overlapping reservations.
  for (int i = 0; i < 64; ++i) {
    const SimTime t0 = rng.uniform_int(0, 100000);
    ledger.reserve(t0, t0 + rng.uniform_int(1000, 30000), {500, 256, 50});
  }
  for (auto _ : state) {
    const SimTime t0 = rng.uniform_int(0, 100000);
    benchmark::DoNotOptimize(ledger.fits(t0, t0 + 10000, {1500, 512, 100}));
  }
}
BENCHMARK(BM_LedgerFits);

void BM_LedgerFitsContended(benchmark::State& state) {
  // A saturated profile (~512 overlapping reservations) where most probes
  // fail — the admission-storm regime the block index exists for.
  cluster::ReservationLedger ledger({4000, 16384, 1000});
  Rng rng(7);
  for (int i = 0; i < 512; ++i) {
    const SimTime t0 = rng.uniform_int(0, 100000);
    ledger.reserve(t0, t0 + rng.uniform_int(1000, 30000), {600, 256, 50});
  }
  for (auto _ : state) {
    const SimTime t0 = rng.uniform_int(0, 100000);
    benchmark::DoNotOptimize(ledger.fits(t0, t0 + 10000, {1500, 512, 100}));
  }
}
BENCHMARK(BM_LedgerFitsContended);

void BM_LedgerChurn(benchmark::State& state) {
  // Admission-like interleaving: one reserve + one release, then a burst of
  // queries — the regime where the lazy index rebuild cost actually shows.
  // Queries-only benchmarks above hide it: their profiles go quiescent after
  // warm-up.
  cluster::ReservationLedger ledger({4000, 16384, 1000});
  Rng rng(11);
  struct Win {
    SimTime t0, t1;
    cluster::ResourceVector r;
  };
  std::vector<Win> active;
  SimTime t = 0;
  for (int i = 0; i < 256; ++i) {
    const SimTime t0 = rng.uniform_int(0, 100000);
    const Win w{t0, t0 + rng.uniform_int(1000, 30000), {500, 256, 50}};
    ledger.reserve(w.t0, w.t1, w.r);
    active.push_back(w);
  }
  std::size_t next = 0;
  for (auto _ : state) {
    Win& w = active[next];
    ledger.release(w.t0, w.t1, w.r);
    w.t0 = t + rng.uniform_int(0, 100000);
    w.t1 = w.t0 + rng.uniform_int(1000, 30000);
    ledger.reserve(w.t0, w.t1, w.r);
    next = (next + 1) % active.size();
    for (int q = 0; q < 8; ++q) {
      const SimTime q0 = t + rng.uniform_int(0, 100000);
      benchmark::DoNotOptimize(ledger.fits(q0, q0 + 10000, {1500, 512, 100}));
    }
    const SimTime s0 = t + rng.uniform_int(0, 100000);
    benchmark::DoNotOptimize(ledger.span_could_fit(s0, s0 + 20000, {1500, 512, 100}));
    ++t;
  }
}
BENCHMARK(BM_LedgerChurn);

void BM_LedgerChurnWithHistory(benchmark::State& state) {
  // The simulator's shape: ~1,500 settled segments behind a moving "now" and
  // a short future window where every edit lands. Each cycle advances now,
  // frees the unstarted tail of the oldest live window, reserves a new one
  // and asks the admission questions; compaction every 100 cycles keeps
  // 1,000 cycles of history, like the driver's periodic compaction.
  // BM_LedgerChurn's profile has no history, so upkeep that scales with the
  // history never shows there.
  constexpr SimTime kStep = 10;
  constexpr int kCompactEvery = 100;
  constexpr SimTime kKeep = 1000 * kStep;
  cluster::ReservationLedger ledger({4000, 16384, 1000});
  Rng rng(12);
  struct Win {
    SimTime t0, t1;
    cluster::ResourceVector r;
  };
  std::vector<Win> live(16, Win{0, 1, {}});
  std::size_t oldest = 0;
  SimTime now = 0;
  int cycle = 0;
  auto step = [&] {
    now += kStep;
    Win& w = live[oldest];
    if (w.t1 > now) ledger.release(std::max(w.t0, now), w.t1, w.r);
    w.t0 = now + rng.uniform_int(0, 200);
    w.t1 = w.t0 + rng.uniform_int(20, 400);
    w.r = {static_cast<double>(rng.uniform_int(100, 1500)), 256, 50};
    ledger.reserve(w.t0, w.t1, w.r);
    oldest = (oldest + 1) % live.size();
    for (int q = 0; q < 4; ++q) {
      const SimTime q0 = now + rng.uniform_int(0, 300);
      benchmark::DoNotOptimize(ledger.fits(q0, q0 + 200, {1500, 512, 100}));
    }
    const SimTime s0 = now + rng.uniform_int(0, 300);
    benchmark::DoNotOptimize(ledger.span_could_fit(s0, s0 + 400, {1500, 512, 100}));
    if (++cycle % kCompactEvery == 0) ledger.compact_before(now - kKeep);
  };
  for (int i = 0; i < 3000; ++i) step();  // reach the steady history size
  for (auto _ : state) step();
  state.counters["segments"] = static_cast<double>(ledger.segment_count());
}
BENCHMARK(BM_LedgerChurnWithHistory);

void BM_LedgerEarliestFit(benchmark::State& state) {
  cluster::ReservationLedger ledger({4000, 16384, 1000});
  Rng rng(8);
  for (int i = 0; i < 256; ++i) {
    const SimTime t0 = rng.uniform_int(0, 100000);
    ledger.reserve(t0, t0 + rng.uniform_int(1000, 30000), {700, 256, 50});
  }
  for (auto _ : state) {
    const SimTime from = rng.uniform_int(0, 100000);
    benchmark::DoNotOptimize(
        ledger.earliest_fit(from, 5000, {2000, 512, 100}, /*horizon=*/200000));
  }
}
BENCHMARK(BM_LedgerEarliestFit);

// The SIMD kernel runs once per dispatch target: Arg = Target enum value
// (0 scalar, 1 sse2, 2 avx2, 3 neon). Targets the host cannot run (or that a
// -DVMLP_NO_SIMD build compiled out) are skipped, not failed, so one binary
// reports whatever its runner can measure. The kernel is called through the
// table directly — it is a pure function, so no dispatch override is needed
// and the scalar leg is always a same-binary baseline.
void BM_SimdBlockRefresh(benchmark::State& state) {
  // The cell-topology refold: reduce_max1 over one 32-machine block of
  // cached free fractions (note_mutation's hot loop body).
  const auto target = static_cast<simd::Target>(state.range(0));
  const simd::KernelTable* k = simd::table_for(target);
  if (k == nullptr) {
    state.SkipWithError("dispatch target not reachable on this host/build");
    return;
  }
  std::vector<double> fractions(32);
  Rng rng(9);
  for (double& x : fractions) x = rng.uniform(0.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(k->reduce_max1(fractions.data(), fractions.size()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_SimdBlockRefresh)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_RngLognormal(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.lognormal_mean_cv(10000.0, 0.3));
  }
}
BENCHMARK(BM_RngLognormal);

void BM_QuantileOfRecent(benchmark::State& state) {
  trace::ProfileStore store;
  Rng rng(4);
  for (int i = 0; i < 512; ++i) {
    store.record(ServiceTypeId(0), RequestTypeId(0),
                 {{100, 100, 10}, 0.2, rng.uniform_int(1000, 50000)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.quantile_of_recent(ServiceTypeId(0), RequestTypeId(0), 0.99, 50.0));
  }
}
BENCHMARK(BM_QuantileOfRecent);

void BM_SampleSetQuantile(benchmark::State& state) {
  stats::SampleSet samples;
  Rng rng(5);
  for (int i = 0; i < 100000; ++i) samples.add(rng.uniform());
  for (auto _ : state) {
    benchmark::DoNotOptimize(samples.quantile(0.99));  // sorted-cache hit path
  }
}
BENCHMARK(BM_SampleSetQuantile);

void BM_ChainChoices(benchmark::State& state) {
  // compose-post-like DAG: fan-out of 4 with a text sub-fan and a join.
  app::Dag dag(9);
  dag.add_edge(0, 1);
  dag.add_edge(0, 2);
  dag.add_edge(0, 3);
  dag.add_edge(0, 4);
  dag.add_edge(1, 5);
  dag.add_edge(1, 6);
  dag.add_edge(2, 7);
  dag.add_edge(3, 7);
  dag.add_edge(4, 7);
  dag.add_edge(5, 7);
  dag.add_edge(6, 7);
  dag.add_edge(7, 8);
  Rng rng(6);
  app::ChainChoices out;
  for (auto _ : state) {
    dag.chain_choices(4, rng, out);
    benchmark::DoNotOptimize(out.rows.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ChainChoices);

/// Hands each arrival to a SelfOrganizing it owns. The `warm`-th arrival
/// runs the benchmark loop instead: organize() that request on the loaded
/// 100-machine cell, then unplace its nodes again (untimed) so every
/// iteration plans the same request against the same ledgers.
class SteadyOrganizer final : public sched::IScheduler {
 public:
  SteadyOrganizer(benchmark::State& state, std::size_t warm) : state_(&state), warm_(warm) {}
  [[nodiscard]] std::string name() const override { return "steady-organizer"; }
  void attach(sched::SimulationDriver& driver) override {
    sched::IScheduler::attach(driver);
    iface_ = std::make_unique<mlp::InterfaceLayer>(driver);
    organizer_ = std::make_unique<mlp::SelfOrganizing>(*iface_, mlp::VmlpParams{}, Rng(1));
  }
  void on_request_arrival(RequestId id) override {
    if (++arrivals_ != warm_) {
      (void)organizer_->organize(id);
      return;
    }
    std::uint64_t allocations = 0;
    for (auto _ : *state_) {
      const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
      const bool placed = organizer_->organize(id);
      allocations += g_allocations.load(std::memory_order_relaxed) - before;
      state_->PauseTiming();
      sched::ActiveRequest* ar = driver_->find_request(id);
      for (std::size_t n = 0; placed && n < ar->nodes.size(); ++n) driver_->unplace(id, n);
      state_->ResumeTiming();
    }
    state_->counters["allocs_per_iter"] = benchmark::Counter(
        static_cast<double>(allocations), benchmark::Counter::kAvgIterations);
  }
  void on_node_unblocked(RequestId, std::size_t) override {}
  void on_tick() override {}

 private:
  benchmark::State* state_;
  std::size_t warm_;
  std::size_t arrivals_ = 0;
  std::unique_ptr<mlp::InterfaceLayer> iface_;
  std::unique_ptr<mlp::SelfOrganizing> organizer_;
};

void BM_OrganizeSteadyState(benchmark::State& state) {
  // The paper's evaluation cell: 100 machines, high-V_r stream, L3 periodic
  // load; the loop runs at the 1,000th arrival, about 2 simulated seconds in.
  const auto application = workloads::make_benchmark_suite();
  const auto mix = loadgen::RequestMix::category(*application, app::VolatilityBand::kHigh);
  loadgen::PatternParams pattern_params;
  pattern_params.horizon = 4 * kSec;
  pattern_params.peak_time = pattern_params.horizon * 2 / 5;
  const auto pattern =
      loadgen::WorkloadPattern::make(loadgen::PatternKind::kL3Periodic, pattern_params, 3);
  Rng arrival_rng(4);
  const auto arrivals = loadgen::generate_arrivals(pattern, mix, arrival_rng, 1.0);
  sched::DriverParams params;
  params.horizon = pattern_params.horizon;
  params.cluster.machine_count = 100;
  SteadyOrganizer scheduler(state, 1000);
  sched::SimulationDriver driver(*application, scheduler, params);
  driver.load_arrivals(arrivals);
  (void)driver.run();
}
BENCHMARK(BM_OrganizeSteadyState)->Iterations(20000);

}  // namespace
