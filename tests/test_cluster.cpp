// Machines, containers, cluster aggregation.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "cluster/cluster.h"
#include "common/error.h"
#include "common/rng.h"

namespace vmlp::cluster {
namespace {

ClusterParams small_params() {
  ClusterParams p;
  p.machine_count = 4;
  p.machine_capacity = {1000, 2000, 100};
  return p;
}

TEST(Container, EffectiveUsageFollowsState) {
  Container c(ContainerId(1), InstanceId(2), MachineId(0), {800, 100, 10}, {400, 100, 10});
  // Running: min(limit, demand).
  EXPECT_EQ(c.effective_usage(), (ResourceVector{400, 100, 10}));
  c.suspend();
  EXPECT_EQ(c.state(), ContainerState::kSuspended);
  const auto suspended = c.effective_usage();
  EXPECT_NEAR(suspended.cpu, std::max(Container::kSuspendedCpuFloor,
                                      400 * Container::kSuspendedCpuFraction), 1e-9);
  EXPECT_NEAR(suspended.mem, std::max(Container::kSuspendedMemFloor,
                                      100 * Container::kSuspendedMemFraction), 1e-9);
  EXPECT_NEAR(suspended.io, std::max(Container::kSuspendedIoFloor,
                                     10 * Container::kSuspendedIoFraction), 1e-9);
  c.resume();
  EXPECT_EQ(c.state(), ContainerState::kRunning);
}

TEST(Container, SetLimitReturnsOld) {
  Container c(ContainerId(1), InstanceId(2), MachineId(0), {800, 100, 10}, {400, 100, 10});
  const auto old = c.set_limit({600, 100, 10});
  EXPECT_EQ(old, (ResourceVector{400, 100, 10}));
  EXPECT_EQ(c.limit(), (ResourceVector{600, 100, 10}));
  EXPECT_THROW(c.set_limit({-1, 0, 0}), InvariantError);
}

TEST(Machine, AddRemoveContainers) {
  Machine m(MachineId(0), {1000, 2000, 100});
  m.add_container(ContainerId(1), InstanceId(10), {400, 100, 10}, {400, 100, 10});
  m.add_container(ContainerId(2), InstanceId(11), {300, 100, 10}, {300, 100, 10});
  EXPECT_EQ(m.container_count(), 2u);
  EXPECT_NE(m.find_container(ContainerId(1)), nullptr);
  m.remove_container(ContainerId(1));
  EXPECT_EQ(m.container_count(), 1u);
  EXPECT_EQ(m.find_container(ContainerId(1)), nullptr);
}

TEST(Machine, DuplicateContainerThrows) {
  Machine m(MachineId(0), {1000, 2000, 100});
  m.add_container(ContainerId(1), InstanceId(10), {1, 1, 1}, {1, 1, 1});
  EXPECT_THROW(m.add_container(ContainerId(1), InstanceId(11), {1, 1, 1}, {1, 1, 1}),
               InvariantError);
}

TEST(Machine, RemoveMissingThrows) {
  Machine m(MachineId(0), {1000, 2000, 100});
  EXPECT_THROW(m.remove_container(ContainerId(9)), InvariantError);
}

TEST(Machine, UsageAndOversubscription) {
  Machine m(MachineId(0), {1000, 2000, 100});
  m.add_container(ContainerId(1), InstanceId(1), {600, 500, 40}, {600, 500, 40});
  EXPECT_FALSE(m.oversubscribed());
  EXPECT_DOUBLE_EQ(m.contention_factor(), 1.0);
  m.add_container(ContainerId(2), InstanceId(2), {600, 500, 40}, {600, 500, 40});
  EXPECT_TRUE(m.oversubscribed());
  EXPECT_DOUBLE_EQ(m.contention_factor(), 1.2);  // 1200/1000 cpu
  // Physical usage clamps to capacity even when limits exceed it.
  EXPECT_EQ(m.current_usage().cpu, 1000);
  EXPECT_EQ(m.allocated().cpu, 1200);
  EXPECT_EQ(m.demanded().cpu, 1200);
}

TEST(Machine, UtilizationSum) {
  Machine m(MachineId(0), {1000, 2000, 100});
  EXPECT_DOUBLE_EQ(m.utilization_sum(), 0.0);
  m.add_container(ContainerId(1), InstanceId(1), {500, 1000, 50}, {500, 1000, 50});
  EXPECT_DOUBLE_EQ(m.utilization_sum(), 1.5);  // 0.5 + 0.5 + 0.5
}

TEST(Machine, ContainerIdsSorted) {
  Machine m(MachineId(0), {1000, 2000, 100});
  m.add_container(ContainerId(5), InstanceId(1), {1, 1, 1}, {1, 1, 1});
  m.add_container(ContainerId(2), InstanceId(2), {1, 1, 1}, {1, 1, 1});
  m.add_container(ContainerId(9), InstanceId(3), {1, 1, 1}, {1, 1, 1});
  const auto ids = m.container_ids();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], ContainerId(2));
  EXPECT_EQ(ids[2], ContainerId(9));
}

TEST(Machine, FlatTableMatchesIdOrderedReference) {
  // Containers come and go out of id order (a relocated node re-adds an old
  // id below the newest one); the table must stay id-sorted and every sum
  // must accumulate in id order — with fractional limits the addition order
  // shows in the bits.
  Machine m(MachineId(0), {1e6, 1e6, 1e6});
  std::map<ContainerId, ResourceVector> reference;
  Rng rng(17);
  for (int step = 0; step < 2000; ++step) {
    const ContainerId id(static_cast<std::uint64_t>(rng.uniform_int(0, 63)));
    if (reference.count(id) == 0) {
      const ResourceVector limit{rng.uniform(0.1, 7.0), rng.uniform(0.1, 7.0),
                                 rng.uniform(0.1, 7.0)};
      m.add_container(id, InstanceId(static_cast<std::uint64_t>(step)), limit, limit);
      reference.emplace(id, limit);
      EXPECT_THROW(m.add_container(id, InstanceId(0), limit, limit), InvariantError);
    } else {
      m.remove_container(id);
      reference.erase(id);
      EXPECT_THROW(m.remove_container(id), InvariantError);
      EXPECT_EQ(m.find_container(id), nullptr);
    }
    ASSERT_EQ(m.container_count(), reference.size());
    std::vector<ContainerId> ids;
    ResourceVector sum;
    for (const auto& [rid, limit] : reference) {
      ids.push_back(rid);
      sum += limit;
    }
    ASSERT_EQ(m.container_ids(), ids);
    const ResourceVector allocated = m.allocated();
    ASSERT_EQ(allocated.cpu, sum.cpu);
    ASSERT_EQ(allocated.mem, sum.mem);
    ASSERT_EQ(allocated.io, sum.io);
  }
}

TEST(Cluster, Construction) {
  Cluster c(small_params());
  EXPECT_EQ(c.machine_count(), 4u);
  EXPECT_EQ(c.machine(MachineId(3)).id(), MachineId(3));
  EXPECT_THROW(c.machine(MachineId(4)), InvariantError);
}

TEST(Cluster, TotalCapacity) {
  Cluster c(small_params());
  EXPECT_EQ(c.total_capacity(), (ResourceVector{4000, 8000, 400}));
}

TEST(Cluster, OverallUtilization) {
  Cluster c(small_params());
  EXPECT_DOUBLE_EQ(c.overall_utilization(), 0.0);
  // Fill one machine's CPU halfway: U = 0.5 / (3 * 4).
  c.machine(MachineId(0)).add_container(ContainerId(1), InstanceId(1), {500, 0, 0}, {500, 0, 0});
  EXPECT_NEAR(c.overall_utilization(), 0.5 / 12.0, 1e-12);
}

TEST(Cluster, UtilizationBounded) {
  Cluster c(small_params());
  for (std::uint32_t m = 0; m < 4; ++m) {
    c.machine(MachineId(m)).add_container(ContainerId(m), InstanceId(m), {9999, 9999, 9999},
                                          {9999, 9999, 9999});
  }
  EXPECT_LE(c.overall_utilization(), 1.0);
  EXPECT_GT(c.overall_utilization(), 0.99);
}

TEST(Cluster, LedgerPerMachine) {
  Cluster c(small_params());
  c.machine(MachineId(0)).ledger().reserve(0, 100, {500, 0, 0});
  EXPECT_FALSE(c.machine(MachineId(0)).ledger().fits(0, 100, {600, 0, 0}));
  EXPECT_TRUE(c.machine(MachineId(1)).ledger().fits(0, 100, {600, 0, 0}));
}

TEST(Cluster, BadParamsThrow) {
  ClusterParams p;
  p.machine_count = 0;
  EXPECT_THROW(Cluster{p}, InvariantError);
}

}  // namespace
}  // namespace vmlp::cluster
