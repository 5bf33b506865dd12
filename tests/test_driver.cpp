// SimulationDriver mechanism tests: placement, execution, communication,
// contention, reservations, limits, accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/error.h"
#include "sched/driver.h"
#include "sched/scheduler.h"

namespace vmlp::sched {
namespace {

/// Scripted scheduler: places every node on machine 0 at full demand as soon
/// as the request arrives (chain pre-planning), or on unblock when
/// `plan_ahead` is false.
class ScriptedScheduler : public IScheduler {
 public:
  explicit ScriptedScheduler(bool plan_ahead = true) : plan_ahead_(plan_ahead) {}

  [[nodiscard]] std::string name() const override { return "scripted"; }

  void on_request_arrival(RequestId id) override {
    ActiveRequest* ar = driver_->find_request(id);
    if (plan_ahead_) {
      for (std::size_t n = 0; n < ar->nodes.size(); ++n) place_node(id, n);
    } else {
      for (std::size_t n : ar->runtime.ready_nodes()) place_node(id, n);
    }
  }
  void on_node_unblocked(RequestId id, std::size_t node) override {
    if (!plan_ahead_) place_node(id, node);
  }
  void on_tick() override {}
  void on_late_invocation(RequestId id, std::size_t node) override {
    ++late_count;
    (void)id;
    (void)node;
  }
  void on_node_finished(RequestId, std::size_t) override { ++finished_nodes; }
  void on_request_finished(RequestId) override { ++finished_requests; }

  int late_count = 0;
  int finished_nodes = 0;
  int finished_requests = 0;
  MachineId target = MachineId(0);
  SimDuration reserve = 50 * kMsec;

 private:
  void place_node(RequestId id, std::size_t node) {
    ActiveRequest* ar = driver_->find_request(id);
    const auto& req_node = ar->runtime.type().nodes()[node];
    const auto& svc = driver_->application().service(req_node.service);
    driver_->place(id, node, target, svc.demand, driver_->now(), reserve);
  }
  bool plan_ahead_;
};

/// Two-stage chain application with deterministic-ish services.
std::unique_ptr<app::Application> make_chain_app() {
  auto application = std::make_unique<app::Application>("chain");
  const auto a = application->add_service("front", {1000, 256, 50}, 10 * kMsec,
                                          app::ServiceClass{1, 2, 1}, app::ResourceIntensity::kCpu);
  const auto b = application->add_service("back", {1000, 256, 50}, 20 * kMsec,
                                          app::ServiceClass{1, 2, 1}, app::ResourceIntensity::kCpu);
  auto builder = application->build_request("r");
  builder.node(a).node(b).chain({0, 1});
  builder.commit();
  return application;
}

DriverParams small_params() {
  DriverParams p;
  p.horizon = 5 * kSec;
  p.cluster.machine_count = 4;
  p.cluster.machine_capacity = {4000, 16384, 1000};
  p.machines_per_rack = 2;
  p.seed = 99;
  p.profile_warmup = 16;
  return p;
}

TEST(Driver, SingleRequestExecutesChain) {
  auto application = make_chain_app();
  ScriptedScheduler sched;
  SimulationDriver driver(*application, sched, small_params());
  driver.load_arrivals({{10 * kMsec, RequestTypeId(0)}});
  const RunResult result = driver.run();

  EXPECT_EQ(result.arrived, 1u);
  EXPECT_EQ(result.completed, 1u);
  EXPECT_EQ(result.unfinished, 0u);
  EXPECT_EQ(sched.finished_nodes, 2);
  EXPECT_EQ(sched.finished_requests, 1);
  // ~30ms of service + communication; far below the 5x SLO.
  EXPECT_DOUBLE_EQ(result.qos_violation_rate, 0.0);
  EXPECT_GT(result.p50_latency_us, 30000.0 * 0.8);
  EXPECT_LT(result.p50_latency_us, 30000.0 * 2.5);
}

TEST(Driver, SpanCausality) {
  auto application = make_chain_app();
  ScriptedScheduler sched;
  SimulationDriver driver(*application, sched, small_params());
  driver.load_arrivals({{10 * kMsec, RequestTypeId(0)}});
  driver.run();

  const auto spans = driver.tracer().spans_of(RequestId(0));
  ASSERT_EQ(spans.size(), 2u);
  // Child cannot start before the parent ends plus >= 1us of communication.
  EXPECT_GT(spans[1]->start, spans[0]->end);
  EXPECT_GT(spans[0]->start, 10 * kMsec);  // after arrival + ingress
  EXPECT_GT(spans[0]->duration(), 0);
}

TEST(Driver, ProfileStoreFedByExecution) {
  auto application = make_chain_app();
  ScriptedScheduler sched;
  DriverParams params = small_params();
  params.profile_warmup = 0;
  SimulationDriver driver(*application, sched, params);
  EXPECT_FALSE(driver.profiles().has_history(ServiceTypeId(0), RequestTypeId(0)));
  driver.load_arrivals({{10 * kMsec, RequestTypeId(0)}});
  driver.run();
  EXPECT_EQ(driver.profiles().case_count(ServiceTypeId(0), RequestTypeId(0)), 1u);
  EXPECT_EQ(driver.profiles().case_count(ServiceTypeId(1), RequestTypeId(0)), 1u);
}

TEST(Driver, WarmupPopulatesProfiles) {
  auto application = make_chain_app();
  ScriptedScheduler sched;
  SimulationDriver driver(*application, sched, small_params());
  EXPECT_EQ(driver.profiles().case_count(ServiceTypeId(0), RequestTypeId(0)), 16u);
}

TEST(Driver, ContainersAndReservationsCleanedUp) {
  auto application = make_chain_app();
  ScriptedScheduler sched;
  SimulationDriver driver(*application, sched, small_params());
  driver.load_arrivals({{10 * kMsec, RequestTypeId(0)}, {20 * kMsec, RequestTypeId(0)}});
  driver.run();
  for (const auto& m : driver.cluster().machines()) {
    EXPECT_EQ(m.container_count(), 0u);
    // All reservations released: nothing left in the far future.
    EXPECT_EQ(m.ledger().usage_at(10 * kSec), cluster::ResourceVector::zero());
  }
}

TEST(Driver, OversubscriptionSlowsExecution) {
  // 8 concurrent requests pinned to one 4-core machine vs. one alone:
  // contention must stretch execution times.
  auto run_with = [](std::size_t n_requests) {
    auto application = make_chain_app();
    ScriptedScheduler sched(false);
    SimulationDriver driver(*application, sched, small_params());
    std::vector<loadgen::Arrival> arrivals;
    for (std::size_t i = 0; i < n_requests; ++i) {
      arrivals.push_back({10 * kMsec, RequestTypeId(0)});
    }
    driver.load_arrivals(arrivals);
    const RunResult r = driver.run();
    EXPECT_EQ(r.completed, n_requests);
    return r.mean_latency_us;
  };
  const double alone = run_with(1);
  const double crowded = run_with(8);
  EXPECT_GT(crowded, alone * 1.5);
}

TEST(Driver, LateInvocationDelivered) {
  // Plan the child to start immediately (planned_start=now at arrival), but
  // its parent takes ~10ms: the child is late and the hook must fire.
  auto application = make_chain_app();
  ScriptedScheduler sched(true);
  SimulationDriver driver(*application, sched, small_params());
  driver.load_arrivals({{10 * kMsec, RequestTypeId(0)}});
  driver.run();
  EXPECT_GE(sched.late_count, 1);
  EXPECT_GE(driver.counters().late_events, 1u);
}

TEST(Driver, AdjustLimitAccelerates) {
  // Start a node at a quarter of its demand, then raise the limit mid-run;
  // it must finish sooner than a run left capped.
  auto run_with = [](bool stretch) {
    auto application = std::make_unique<app::Application>("one");
    const auto svc = application->add_service("s", {2000, 256, 50}, 50 * kMsec,
                                              app::ServiceClass{1, 2, 1},
                                              app::ResourceIntensity::kCpu);
    auto builder = application->build_request("r");
    builder.node(svc);
    builder.commit();

    class CappedScheduler : public IScheduler {
     public:
      explicit CappedScheduler(bool stretch) : stretch_(stretch) {}
      [[nodiscard]] std::string name() const override { return "capped"; }
      void on_request_arrival(RequestId id) override {
        ActiveRequest* ar = driver_->find_request(id);
        const auto& svc = driver_->application().service(ar->runtime.type().nodes()[0].service);
        driver_->place(id, 0, MachineId(0), svc.demand * 0.25, driver_->now(), 300 * kMsec);
      }
      void on_node_unblocked(RequestId, std::size_t) override {}
      void on_node_started(RequestId id, std::size_t node) override {
        if (stretch_) {
          // The resource-stretch actuation path.
          const auto& svc =
              driver_->application().service(
                  driver_->find_request(id)->runtime.type().nodes()[node].service);
          driver_->adjust_limit(id, node, svc.demand);
        }
      }
      void on_tick() override {}

     private:
      bool stretch_;
    };

    CappedScheduler sched(stretch);
    DriverParams params;
    params.horizon = 3 * kSec;
    params.cluster.machine_count = 2;
    params.seed = 5;
    SimulationDriver driver(*application, sched, params);
    driver.load_arrivals({{kMsec, RequestTypeId(0)}});
    const RunResult r = driver.run();
    EXPECT_EQ(r.completed, 1u);
    return r.mean_latency_us;
  };
  const double capped = run_with(false);
  const double stretched = run_with(true);
  // S=2 at f=4 runs 4x slower; lifting the cap right at start restores ~1x.
  EXPECT_GT(capped, stretched * 2.0);
}

TEST(Driver, UnfinishedCountedAsViolations) {
  auto application = make_chain_app();
  ScriptedScheduler sched;
  DriverParams params = small_params();
  params.horizon = 12 * kMsec;  // too short for the ~30ms chain
  SimulationDriver driver(*application, sched, params);
  driver.load_arrivals({{kMsec, RequestTypeId(0)}});
  const RunResult result = driver.run();
  EXPECT_EQ(result.completed, 0u);
  EXPECT_EQ(result.unfinished, 1u);
  EXPECT_DOUBLE_EQ(result.qos_violation_rate, 1.0);
}

TEST(Driver, DeterministicAcrossRuns) {
  auto run_once = [] {
    auto application = make_chain_app();
    ScriptedScheduler sched;
    SimulationDriver driver(*application, sched, small_params());
    driver.load_arrivals({{10 * kMsec, RequestTypeId(0)}, {15 * kMsec, RequestTypeId(0)}});
    return driver.run();
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  EXPECT_DOUBLE_EQ(a.p50_latency_us, b.p50_latency_us);
  EXPECT_DOUBLE_EQ(a.mean_utilization, b.mean_utilization);
}

/// Places nothing: every request stays live and unplaced to the horizon.
class IdleScheduler : public IScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "idle"; }
  void on_request_arrival(RequestId) override {}
  void on_node_unblocked(RequestId, std::size_t) override {}
  void on_tick() override {}
};

/// `call` throws InvariantError whose message names `name`.
void expect_rejected(const std::function<void()>& call, const std::string& name) {
  try {
    call();
    ADD_FAILURE() << name << " accepted a bad node";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find(name + "()"), std::string::npos) << e.what();
  }
}

TEST(Driver, PlacementValidation) {
  auto application = make_chain_app();
  IdleScheduler sched;
  SimulationDriver driver(*application, sched, small_params());
  EXPECT_THROW(driver.place(RequestId(99), 0, MachineId(0), {1, 1, 1}, 0, kMsec),
               InvariantError);

  // A live two-node request: node index 2 is out of range for every
  // scheduler-facing mutator.
  driver.load_arrivals({{10 * kMsec, RequestTypeId(0)}});
  driver.run();
  const RequestId id(0);
  ASSERT_NE(driver.find_request(id), nullptr);
  expect_rejected([&] { driver.place(id, 2, MachineId(0), {1, 1, 1}, driver.now(), kMsec); },
                  "place");
  expect_rejected([&] { driver.adjust_limit(id, 2, {1, 1, 1}); }, "adjust_limit");
  expect_rejected([&] { driver.unplace(id, 2); }, "unplace");
  expect_rejected([&] { driver.release_reservation(id, 2); }, "release_reservation");
}

TEST(Driver, AbandonedNodeIsNeverPlacedAgain) {
  auto application = make_chain_app();
  ScriptedScheduler sched;
  sched.reserve = 2 * kMsec;  // the fault lands inside the reservation: before the finish
  DriverParams p = small_params();
  p.failure.enabled = true;
  p.failure.crashes_per_second = 0.0;
  p.failure.container_fault_prob = 1.0;  // the root's first execution dies
  p.failure.max_retries = 0;             // ... and spends the whole budget
  SimulationDriver driver(*application, sched, p);
  driver.load_arrivals({{10 * kMsec, RequestTypeId(0)}});
  const RunResult result = driver.run();
  EXPECT_EQ(result.abandoned_requests, 1u);

  ActiveRequest* ar = driver.find_request(RequestId(0));
  ASSERT_NE(ar, nullptr);
  EXPECT_EQ(ar->runtime.node(0).state, app::NodeState::kAbandoned);
  const auto& svc = driver.application().service(ar->runtime.type().nodes()[0].service);
  EXPECT_THROW(driver.place(RequestId(0), 0, MachineId(1), svc.demand, driver.now(), kMsec),
               InvariantError);
}

/// Drives four requests so that the front one completes last. Request 1 runs
/// straight away on the safe machine. Requests 0, 2 and 3 book their roots on
/// the crash machine for after its first crash, so the crash voids all three
/// pending placements. The orphans of 2 and 3 go to the safe machine at once;
/// request 0's waits until every other request has completed.
class WindowScheduler : public IScheduler {
 public:
  WindowScheduler(MachineId crash, MachineId safe, SimTime crash_at)
      : crash_(crash), safe_(safe), crash_at_(crash_at) {}

  [[nodiscard]] std::string name() const override { return "window"; }
  void on_request_arrival(RequestId id) override {
    if (id == RequestId(1)) {
      place_root(id, safe_, driver_->now());
    } else {
      place_root(id, crash_, crash_at_ + 10 * kMsec);
    }
  }
  void on_node_unblocked(RequestId id, std::size_t node) override { place(id, node, safe_); }
  void on_node_orphaned(RequestId id, std::size_t node) override {
    if (orphans.empty()) {
      active_at_crash = driver_->active_requests();
      completed_visible_at_crash = driver_->find_request(RequestId(1)) != nullptr;
      unissued_visible_at_crash = driver_->find_request(RequestId(4)) != nullptr;
    }
    orphans.push_back(id);
    if (id == RequestId(0)) return;  // held back until the others completed
    place(id, node, safe_);
  }
  void on_tick() override {
    if (finished.size() == 3 && !front_placed) {
      front_placed = true;
      place(RequestId(0), 0, safe_);
    }
  }
  void on_request_finished(RequestId id) override { finished.push_back(id); }

  std::vector<RequestId> orphans;
  std::vector<RequestId> finished;
  std::vector<RequestId> active_at_crash;
  bool completed_visible_at_crash = true;
  bool unissued_visible_at_crash = true;
  bool front_placed = false;

 private:
  void place(RequestId id, std::size_t node, MachineId machine) {
    const ActiveRequest* ar = driver_->find_request(id);
    const auto& svc = driver_->application().service(ar->runtime.type().nodes()[node].service);
    driver_->place(id, node, machine, svc.demand, driver_->now(), 50 * kMsec);
  }
  void place_root(RequestId id, MachineId machine, SimTime planned_start) {
    const ActiveRequest* ar = driver_->find_request(id);
    const auto& svc = driver_->application().service(ar->runtime.type().nodes()[0].service);
    driver_->place(id, 0, machine, svc.demand, planned_start, 50 * kMsec);
  }

  MachineId crash_;
  MachineId safe_;
  SimTime crash_at_;
};

TEST(Driver, RequestWindowSurvivesOutOfOrderCompletion) {
  auto application = make_chain_app();
  DriverParams p = small_params();
  p.horizon = 2 * kSec;
  p.failure.enabled = true;
  p.failure.crashes_per_second = 0.5;
  // The crash schedule is a pure function of the seed: find its first crash
  // and a machine that never goes down.
  const std::vector<FailureWindow> windows =
      build_failure_schedule(p.failure, p.seed, p.horizon, p.cluster.machine_count);
  ASSERT_FALSE(windows.empty());
  const FailureWindow first = windows.front();
  ASSERT_GT(first.down_at, 200 * kMsec) << "request 1 must complete before the crash";
  MachineId safe;
  for (std::uint32_t m = 0; m < p.cluster.machine_count && !safe.valid(); ++m) {
    if (std::none_of(windows.begin(), windows.end(),
                     [&](const FailureWindow& w) { return w.machine == MachineId(m); })) {
      safe = MachineId(m);
    }
  }
  ASSERT_TRUE(safe.valid());

  WindowScheduler sched(first.machine, safe, first.down_at);
  SimulationDriver driver(*application, sched, p);
  // Fill the crash machine so early starts are refused: the roots booked
  // there stay pending until the crash voids them.
  cluster::Machine& crash_machine = driver.cluster().machine(first.machine);
  crash_machine.add_container(ContainerId(1ULL << 40), InstanceId(), crash_machine.capacity(),
                              crash_machine.capacity());
  driver.load_arrivals({{1 * kMsec, RequestTypeId(0)},
                        {2 * kMsec, RequestTypeId(0)},
                        {3 * kMsec, RequestTypeId(0)},
                        {4 * kMsec, RequestTypeId(0)}});
  const RunResult result = driver.run();

  EXPECT_EQ(result.completed, 4u);
  ASSERT_EQ(sched.finished.size(), 4u);
  EXPECT_EQ(sched.finished.front(), RequestId(1));
  EXPECT_EQ(sched.finished.back(), RequestId(0));
  // The crash voided the pending placements in arrival order, while the
  // completed request 1 left a null slot behind the live front request 0.
  EXPECT_EQ(sched.orphans, (std::vector<RequestId>{RequestId(0), RequestId(2), RequestId(3)}));
  EXPECT_EQ(sched.active_at_crash,
            (std::vector<RequestId>{RequestId(0), RequestId(2), RequestId(3)}));
  EXPECT_FALSE(sched.completed_visible_at_crash);
  EXPECT_FALSE(sched.unissued_visible_at_crash);
  // Everything completed: the front was trimmed past every id.
  for (std::uint64_t id = 0; id < 4; ++id) EXPECT_EQ(driver.find_request(RequestId(id)), nullptr);
  EXPECT_EQ(driver.find_request(RequestId(4)), nullptr);
  EXPECT_EQ(driver.find_request(RequestId::invalid()), nullptr);
  EXPECT_TRUE(driver.active_requests().empty());
}

TEST(Driver, ArrivalOutsideHorizonThrows) {
  auto application = make_chain_app();
  ScriptedScheduler sched;
  SimulationDriver driver(*application, sched, small_params());
  EXPECT_THROW(driver.load_arrivals({{10 * kSec, RequestTypeId(0)}}), InvariantError);
}

TEST(Driver, RunTwiceThrows) {
  auto application = make_chain_app();
  ScriptedScheduler sched;
  SimulationDriver driver(*application, sched, small_params());
  driver.run();
  EXPECT_THROW(driver.run(), InvariantError);
}

TEST(Driver, ExpectedCommMatchesDistanceOrdering) {
  auto application = make_chain_app();
  ScriptedScheduler sched;
  SimulationDriver driver(*application, sched, small_params());
  const SimDuration same = driver.expected_comm(MachineId(0), MachineId(0));
  const SimDuration rack = driver.expected_comm(MachineId(0), MachineId(1));
  const SimDuration cross = driver.expected_comm(MachineId(0), MachineId(3));
  EXPECT_LT(same, rack);
  EXPECT_LT(rack, cross);
  EXPECT_GT(driver.expected_ingress(), 0);
}

TEST(Driver, MonitorSampledDuringRun) {
  auto application = make_chain_app();
  ScriptedScheduler sched;
  SimulationDriver driver(*application, sched, small_params());
  driver.load_arrivals({{10 * kMsec, RequestTypeId(0)}});
  driver.run();
  // 5s horizon, 100ms period -> ~50 samples.
  EXPECT_GE(driver.cluster_monitor().sample_count(), 45u);
  EXPECT_GE(driver.cluster_monitor().mean_overall(), 0.0);
  EXPECT_LE(driver.cluster_monitor().mean_overall(), 1.0);
}

}  // namespace
}  // namespace vmlp::sched
