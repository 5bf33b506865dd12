// Heap-allocation budget of the v-MLP request path. This binary replaces the
// global operator new with a counting one, runs short 100-machine v-MLP
// simulations and asserts that chain planning allocates nothing once its
// buffers are warm, and that a whole run stays within a few allocations per
// arrival. Sanitizer builds replace the allocator themselves, so the
// assertions are skipped there.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "common/audit.h"
#include "loadgen/generator.h"
#include "loadgen/patterns.h"
#include "mlp/interface_layer.h"
#include "mlp/self_organizing.h"
#include "mlp/vmlp.h"
#include "sched/driver.h"
#include "workloads/suite.h"

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

namespace vmlp {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

/// The paper's evaluation cell over half its usual horizon: 100 machines,
/// the high-V_r stream on the L3 periodic curve, spans on, default driver
/// parameters (ledger history compacted every 10 s).
struct PaperCell {
  PaperCell() {
    loadgen::PatternParams pattern_params;
    pattern_params.horizon = 20 * kSec;
    pattern_params.peak_time = pattern_params.horizon * 2 / 5;
    const auto pattern =
        loadgen::WorkloadPattern::make(loadgen::PatternKind::kL3Periodic, pattern_params, 3);
    const auto mix = loadgen::RequestMix::category(*application, app::VolatilityBand::kHigh);
    Rng arrival_rng(4);
    arrivals = loadgen::generate_arrivals(pattern, mix, arrival_rng, 1.0);
    params.horizon = pattern_params.horizon;
    params.cluster.machine_count = 100;
  }
  std::unique_ptr<app::Application> application = workloads::make_benchmark_suite();
  std::vector<loadgen::Arrival> arrivals;
  sched::DriverParams params;
};

/// Plans every arrival with a SelfOrganizing it owns and counts the
/// allocations inside organize() from `warm_until` on. Warmup has to span a
/// ledger compaction: until the first one, every machine's ledger history
/// grows and its segment storage reallocates at each new peak.
class CountingOrganizer final : public sched::IScheduler {
 public:
  explicit CountingOrganizer(SimTime warm_until) : warm_until_(warm_until) {}
  [[nodiscard]] std::string name() const override { return "counting-organizer"; }
  void attach(sched::SimulationDriver& driver) override {
    sched::IScheduler::attach(driver);
    iface_ = std::make_unique<mlp::InterfaceLayer>(driver);
    organizer = std::make_unique<mlp::SelfOrganizing>(*iface_, mlp::VmlpParams{}, Rng(1));
  }
  void on_request_arrival(RequestId id) override {
    if (driver_->now() < warm_until_) {
      (void)organizer->organize(id);
      return;
    }
    const std::uint64_t before = allocations();
    (void)organizer->organize(id);
    counted_allocations += allocations() - before;
    ++counted_calls;
  }
  void on_node_unblocked(RequestId, std::size_t) override {}
  void on_tick() override {}

  std::unique_ptr<mlp::SelfOrganizing> organizer;
  std::uint64_t counted_allocations = 0;
  std::size_t counted_calls = 0;

 private:
  SimTime warm_until_;
  std::unique_ptr<mlp::InterfaceLayer> iface_;
};

class Allocations : public ::testing::Test {
 protected:
  void SetUp() override {
    if (kSanitized) GTEST_SKIP() << "sanitizers replace the global allocator";
    // Audit-tier checks may allocate; the budget is the production path's.
    audit::set_enabled(false);
  }
  void TearDown() override { audit::set_enabled(audit_before_); }

  bool audit_before_ = audit::enabled();
};

TEST_F(Allocations, OrganizeIsAllocationFreeAfterWarmup) {
  PaperCell cell;
  CountingOrganizer scheduler(12 * kSec);
  sched::SimulationDriver driver(*cell.application, scheduler, cell.params);
  driver.load_arrivals(cell.arrivals);
  (void)driver.run();
  EXPECT_GT(scheduler.counted_calls, 1000u);
  EXPECT_GT(scheduler.organizer->plans_committed(), 1000u);
  EXPECT_EQ(scheduler.counted_allocations, 0u)
      << "over " << scheduler.counted_calls << " organize() calls";
}

TEST_F(Allocations, VmlpRunStaysWithinEightPerArrival) {
  PaperCell cell;
  mlp::VmlpScheduler scheduler;
  sched::SimulationDriver driver(*cell.application, scheduler, cell.params);
  driver.load_arrivals(cell.arrivals);
  const std::uint64_t before = allocations();
  const sched::RunResult result = driver.run();
  const double per_arrival =
      static_cast<double>(allocations() - before) / static_cast<double>(result.arrived);
  ASSERT_GT(result.arrived, 1000u);
  EXPECT_GT(result.completed, result.arrived / 2);
  RecordProperty("allocations_per_arrival", std::to_string(per_arrival));
  EXPECT_LE(per_arrival, 8.0);
}

}  // namespace
}  // namespace vmlp
