// Tracing (Zipkin analogue) and the historical profile store.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "trace/profile_store.h"
#include "trace/tracer.h"

namespace vmlp::trace {
namespace {

TEST(Tracer, RequestLifecycle) {
  Tracer tracer;
  tracer.on_request_arrival(RequestId(1), RequestTypeId(0), 100);
  EXPECT_EQ(tracer.request_count(), 1u);
  EXPECT_EQ(tracer.completed_count(), 0u);
  const RequestRecord* rec = tracer.find_request(RequestId(1));
  ASSERT_NE(rec, nullptr);
  EXPECT_FALSE(rec->finished());

  tracer.on_request_completion(RequestId(1), 600);
  EXPECT_EQ(tracer.completed_count(), 1u);
  EXPECT_TRUE(rec->finished());
  EXPECT_EQ(rec->latency(), 500);
}

TEST(Tracer, DuplicateArrivalThrows) {
  Tracer tracer;
  tracer.on_request_arrival(RequestId(1), RequestTypeId(0), 0);
  EXPECT_THROW(tracer.on_request_arrival(RequestId(1), RequestTypeId(0), 1), InvariantError);
}

TEST(Tracer, CompletionErrors) {
  Tracer tracer;
  EXPECT_THROW(tracer.on_request_completion(RequestId(5), 10), InvariantError);
  tracer.on_request_arrival(RequestId(1), RequestTypeId(0), 100);
  EXPECT_THROW(tracer.on_request_completion(RequestId(1), 50), InvariantError);  // before arrival
  tracer.on_request_completion(RequestId(1), 200);
  EXPECT_THROW(tracer.on_request_completion(RequestId(1), 300), InvariantError);  // twice
}

TEST(Tracer, SpansByRequestSorted) {
  Tracer tracer;
  tracer.on_request_arrival(RequestId(1), RequestTypeId(0), 0);
  tracer.record_span(Span{RequestId(1), RequestTypeId(0), ServiceTypeId(2), InstanceId(1),
                          MachineId(0), 50, 80});
  tracer.record_span(Span{RequestId(1), RequestTypeId(0), ServiceTypeId(1), InstanceId(0),
                          MachineId(0), 10, 40});
  const auto spans = tracer.spans_of(RequestId(1));
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0]->service, ServiceTypeId(1));
  EXPECT_EQ(spans[1]->service, ServiceTypeId(2));
  EXPECT_EQ(spans[0]->duration(), 30);
  EXPECT_TRUE(tracer.spans_of(RequestId(9)).empty());
}

TEST(Tracer, BackwardsSpanThrows) {
  Tracer tracer;
  EXPECT_THROW(tracer.record_span(Span{RequestId(1), RequestTypeId(0), ServiceTypeId(0),
                                       InstanceId(0), MachineId(0), 100, 50}),
               InvariantError);
}

TEST(Tracer, RequestsInArrivalOrder) {
  Tracer tracer;
  tracer.on_request_arrival(RequestId(3), RequestTypeId(0), 0);
  tracer.on_request_arrival(RequestId(1), RequestTypeId(0), 5);
  const auto reqs = tracer.requests();
  ASSERT_EQ(reqs.size(), 2u);
  EXPECT_EQ(reqs[0]->id, RequestId(3));
  EXPECT_EQ(reqs[1]->id, RequestId(1));
}

TEST(Tracer, ReleaseRecyclesSlotsAndDropsTheRequest) {
  Tracer tracer;
  tracer.reserve(4);
  tracer.on_request_arrival(RequestId(1), RequestTypeId(0), 0);
  tracer.on_request_arrival(RequestId(2), RequestTypeId(0), 1);
  for (SimTime t : {10, 30}) {
    tracer.record_span(Span{RequestId(1), RequestTypeId(0), ServiceTypeId(0), InstanceId(0),
                            MachineId(0), t, t + 5});
  }
  tracer.record_span(Span{RequestId(2), RequestTypeId(0), ServiceTypeId(1), InstanceId(1),
                          MachineId(0), 20, 25});
  tracer.on_request_completion(RequestId(1), 40);

  tracer.release_request(RequestId(1));
  // The released request is gone from every per-request view...
  EXPECT_EQ(tracer.find_request(RequestId(1)), nullptr);
  EXPECT_TRUE(tracer.spans_of(RequestId(1)).empty());
  ASSERT_EQ(tracer.requests().size(), 1u);
  EXPECT_EQ(tracer.requests()[0]->id, RequestId(2));
  // ...arrival/completion tallies keep counting the whole stream...
  EXPECT_EQ(tracer.request_count(), 2u);
  EXPECT_EQ(tracer.completed_count(), 1u);
  // ...and the flat view is invalid now that slots recycle in place.
  EXPECT_THROW(tracer.spans(), InvariantError);

  // New spans reuse the freed slots; the survivor's chain stays intact.
  tracer.on_request_arrival(RequestId(3), RequestTypeId(0), 50);
  for (SimTime t : {60, 80, 90}) {
    tracer.record_span(Span{RequestId(3), RequestTypeId(0), ServiceTypeId(2), InstanceId(2),
                            MachineId(1), t, t + 5});
  }
  EXPECT_EQ(tracer.spans_of(RequestId(3)).size(), 3u);
  ASSERT_EQ(tracer.spans_of(RequestId(2)).size(), 1u);
  EXPECT_EQ(tracer.spans_of(RequestId(2))[0]->start, 20);
  // Releasing an unknown id is a no-op.
  tracer.release_request(RequestId(99));
}

class ProfileStoreTest : public ::testing::Test {
 protected:
  static ExecutionCase make_case(SimDuration exec) {
    return ExecutionCase{{100, 100, 10}, 0.2, exec};
  }
  ServiceTypeId svc_{1};
  RequestTypeId req_{2};
};

TEST_F(ProfileStoreTest, EmptyQueriesReturnNullopt) {
  ProfileStore store;
  EXPECT_FALSE(store.has_history(svc_, req_));
  EXPECT_FALSE(store.max_slack(svc_, req_).has_value());
  EXPECT_FALSE(store.mean_exec(svc_, req_).has_value());
  EXPECT_FALSE(store.quantile_of_recent(svc_, req_, 0.5, 50).has_value());
  EXPECT_FALSE(store.mean_usage(svc_, req_).has_value());
  EXPECT_TRUE(store.exec_times(svc_, req_).empty());
}

TEST_F(ProfileStoreTest, MeanAndMax) {
  ProfileStore store;
  for (SimDuration t : {10, 20, 30}) store.record(svc_, req_, make_case(t));
  EXPECT_EQ(store.case_count(svc_, req_), 3u);
  EXPECT_EQ(*store.mean_exec(svc_, req_), 20);
  EXPECT_EQ(*store.max_slack(svc_, req_), 30);
}

TEST_F(ProfileStoreTest, KeysAreIndependent) {
  ProfileStore store;
  store.record(svc_, req_, make_case(10));
  store.record(ServiceTypeId(9), req_, make_case(99));
  EXPECT_EQ(*store.max_slack(svc_, req_), 10);
  EXPECT_EQ(*store.max_slack(ServiceTypeId(9), req_), 99);
  EXPECT_FALSE(store.has_history(svc_, RequestTypeId(7)));
}

TEST_F(ProfileStoreTest, RingEvictionOldestFirst) {
  ProfileStore store(4);
  for (SimDuration t = 1; t <= 6; ++t) store.record(svc_, req_, make_case(t * 10));
  EXPECT_EQ(store.case_count(svc_, req_), 4u);
  // Oldest two (10, 20) evicted.
  const auto times = store.exec_times(svc_, req_);
  EXPECT_EQ(times, (std::vector<SimDuration>{30, 40, 50, 60}));
  EXPECT_EQ(*store.mean_exec(svc_, req_), 45);
}

TEST_F(ProfileStoreTest, MeanUsageAveragesVectors) {
  ProfileStore store;
  store.record(svc_, req_, ExecutionCase{{100, 0, 0}, 0.1, 10});
  store.record(svc_, req_, ExecutionCase{{300, 0, 0}, 0.1, 10});
  EXPECT_NEAR(store.mean_usage(svc_, req_)->cpu, 200.0, 1e-9);
}

TEST_F(ProfileStoreTest, QuantileOfRecentWindow) {
  ProfileStore store;
  // 100 cases: 1..100.
  for (SimDuration t = 1; t <= 100; ++t) store.record(svc_, req_, make_case(t));
  // Most recent 10%: 91..100 — median 95 or 96.
  const auto q50 = *store.quantile_of_recent(svc_, req_, 0.5, 10.0);
  EXPECT_NEAR(static_cast<double>(q50), 95.5, 1.0);
  // Whole history median ~50.5.
  const auto q50_all = *store.quantile_of_recent(svc_, req_, 0.5, 100.0);
  EXPECT_NEAR(static_cast<double>(q50_all), 50.5, 1.0);
  // p99 of everything ~99.
  const auto q99 = *store.quantile_of_recent(svc_, req_, 0.99, 100.0);
  EXPECT_GE(q99, 98);
}

// quantile_of_recent selects the two order statistics it interpolates
// between instead of sorting; the answer must equal a full sort's exactly,
// on wrapped rings and with heavy duplication.
TEST_F(ProfileStoreTest, QuantileMatchesSortedReference) {
  static constexpr std::size_t kCapacity = 512;
  auto reference = [](const std::vector<SimDuration>& history, double q, double x) {
    const std::size_t n = std::min(history.size(), kCapacity);
    const std::size_t take = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(static_cast<double>(n) * x / 100.0)));
    std::vector<double> recent(history.end() - static_cast<std::ptrdiff_t>(take),
                               history.end());
    std::sort(recent.begin(), recent.end());
    if (recent.size() == 1) return static_cast<SimDuration>(std::llround(recent[0]));
    const double pos = q * static_cast<double>(recent.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, recent.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return static_cast<SimDuration>(std::llround(recent[lo] * (1.0 - frac) + recent[hi] * frac));
  };
  Rng rng(512);
  for (const std::size_t records : {1u, 2u, 3u, 17u, 511u, 512u, 513u, 1000u, 1337u, 2050u}) {
    for (const bool duplicates : {true, false}) {
      ProfileStore store(kCapacity);
      std::vector<SimDuration> history;
      for (std::size_t i = 0; i < records; ++i) {
        // Duplicates: a dozen distinct values. Otherwise a wide spread.
        const SimDuration t = duplicates ? rng.uniform_int(0, 11) * 250
                                         : rng.uniform_int(0, 5'000'000);
        store.record(svc_, req_, make_case(t));
        history.push_back(t);
      }
      for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
        for (const double x : {1.0, 10.0, 50.0, 100.0}) {
          EXPECT_EQ(*store.quantile_of_recent(svc_, req_, q, x), reference(history, q, x))
              << "records=" << records << " duplicates=" << duplicates << " q=" << q
              << " x=" << x;
        }
      }
    }
  }
}

TEST_F(ProfileStoreTest, QuantileTakesAtLeastOne) {
  ProfileStore store;
  store.record(svc_, req_, make_case(42));
  EXPECT_EQ(*store.quantile_of_recent(svc_, req_, 0.99, 1.0), 42);
}

TEST_F(ProfileStoreTest, QuantileParamValidation) {
  ProfileStore store;
  store.record(svc_, req_, make_case(1));
  EXPECT_THROW((void)store.quantile_of_recent(svc_, req_, 1.5, 50), InvariantError);
  EXPECT_THROW((void)store.quantile_of_recent(svc_, req_, 0.5, 0.0), InvariantError);
  EXPECT_THROW((void)store.quantile_of_recent(svc_, req_, 0.5, 101.0), InvariantError);
}

TEST_F(ProfileStoreTest, CachedQuantileRefreshesAfterStaleness) {
  ProfileStore store;
  for (int i = 0; i < 10; ++i) store.record(svc_, req_, make_case(10));
  EXPECT_EQ(*store.quantile_of_recent(svc_, req_, 0.5, 100.0), 10);
  // Flood with much larger values: after the staleness window the cached
  // quantile must reflect them.
  for (std::uint64_t i = 0; i < 2 * ProfileStore::kCacheStaleness; ++i) {
    store.record(svc_, req_, make_case(1000));
  }
  EXPECT_EQ(*store.quantile_of_recent(svc_, req_, 0.5, 100.0), 1000);
}

TEST_F(ProfileStoreTest, CachedMaxRefreshes) {
  ProfileStore store(512);
  store.record(svc_, req_, make_case(10));
  EXPECT_EQ(*store.max_slack(svc_, req_), 10);
  for (std::uint64_t i = 0; i < 2 * ProfileStore::kCacheStaleness; ++i) {
    store.record(svc_, req_, make_case(500));
  }
  EXPECT_EQ(*store.max_slack(svc_, req_), 500);
}

TEST_F(ProfileStoreTest, IncrementalMeanMatchesRecomputeUnderEviction) {
  ProfileStore store(8);
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    store.record(svc_, req_, make_case(rng.uniform_int(1, 1000)));
    const auto times = store.exec_times(svc_, req_);
    double sum = 0.0;
    for (auto t : times) sum += static_cast<double>(t);
    EXPECT_EQ(*store.mean_exec(svc_, req_),
              static_cast<SimDuration>(std::llround(sum / static_cast<double>(times.size()))));
  }
}

TEST_F(ProfileStoreTest, ZeroCapacityThrows) { EXPECT_THROW(ProfileStore(0), InvariantError); }

TEST_F(ProfileStoreTest, NegativeExecTimeThrows) {
  ProfileStore store;
  EXPECT_THROW(store.record(svc_, req_, make_case(-1)), InvariantError);
}

}  // namespace
}  // namespace vmlp::trace
