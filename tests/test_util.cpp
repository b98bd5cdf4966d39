// Unit tests for the util substrate: status/result, config, stats, rng,
// and the lock-free queues (including multi-producer stress).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "util/config.hpp"
#include "util/mpsc_queue.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/status.hpp"

namespace gpsa {
namespace {

// --- Status / Result --------------------------------------------------------

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  const Status s = io_error("disk on fire");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(s.to_string(), "IO_ERROR: disk on fire");
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().is_ok());
}

TEST(Result, HoldsStatus) {
  Result<int> r(not_found("nope"));
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Result, AssignOrReturnPropagates) {
  auto inner = []() -> Result<int> { return invalid_argument("bad"); };
  auto outer = [&]() -> Result<int> {
    GPSA_ASSIGN_OR_RETURN(const int v, inner());
    return v + 1;
  };
  const auto r = outer();
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// --- Config ------------------------------------------------------------------

TEST(Config, ParsesArgs) {
  const char* argv[] = {"prog", "--alpha=3", "--flag", "pos1", "--name=x y"};
  const auto r = Config::from_args(5, argv);
  ASSERT_TRUE(r.is_ok());
  const Config& c = r.value();
  EXPECT_EQ(c.get_int("alpha", 0), 3);
  EXPECT_TRUE(c.get_bool("flag", false));
  EXPECT_EQ(c.get_string("name", ""), "x y");
  ASSERT_EQ(c.positional().size(), 1U);
  EXPECT_EQ(c.positional()[0], "pos1");
}

TEST(Config, DefaultsWhenMissingOrMalformed) {
  Config c;
  c.set("bad_int", "12x");
  c.set("bad_bool", "maybe");
  EXPECT_EQ(c.get_int("bad_int", -1), -1);
  EXPECT_TRUE(c.get_bool("bad_bool", true));
  EXPECT_EQ(c.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(c.get_double("missing", 2.5), 2.5);
}

TEST(Config, RejectsEmptyKey) {
  Config c;
  EXPECT_FALSE(c.set_entry("=v").is_ok());
  EXPECT_FALSE(c.set_entry("").is_ok());
}

// --- Stats -------------------------------------------------------------------

TEST(RunningStat, MeanAndVariance) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, MergeMatchesCombined) {
  RunningStat a;
  RunningStat b;
  RunningStat all;
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
}

TEST(Summary, Percentiles) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) {
    xs.push_back(i);
  }
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 100U);
  EXPECT_NEAR(s.p50, 50.5, 1e-9);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.p90, 90.1, 1e-9);
}

// --- Rng ---------------------------------------------------------------------

TEST(Rng, DeterministicPerSeed) {
  Rng a(123);
  Rng b(123);
  Rng c(124);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const auto x = a.next_u64();
    EXPECT_EQ(x, b.next_u64());
    any_diff |= (x != c.next_u64());
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, NextBelowInRangeAndRoughlyUniform) {
  Rng rng(7);
  std::vector<int> histogram(10, 0);
  for (int i = 0; i < 100'000; ++i) {
    const auto x = rng.next_below(10);
    ASSERT_LT(x, 10U);
    ++histogram[x];
  }
  for (int count : histogram) {
    EXPECT_GT(count, 9'000);
    EXPECT_LT(count, 11'000);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

// --- MpscQueue ---------------------------------------------------------------

TEST(MpscQueue, FifoSingleProducer) {
  MpscQueue<int> q;
  for (int i = 0; i < 100; ++i) {
    q.push(i);
  }
  for (int i = 0; i < 100; ++i) {
    const auto v = q.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(MpscQueue, ApproxSizeTracksContents) {
  MpscQueue<int> q;
  EXPECT_TRUE(q.approx_empty());
  q.push(1);
  q.push(2);
  EXPECT_EQ(q.approx_size(), 2U);
  (void)q.try_pop();
  EXPECT_EQ(q.approx_size(), 1U);
}

TEST(MpscQueue, MultiProducerDeliversEverythingInPerProducerOrder) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 20'000;
  MpscQueue<std::pair<int, int>> q;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        q.push({p, i});
      }
    });
  }
  std::vector<int> next_expected(kProducers, 0);
  for (int received = 0; received < kProducers * kPerProducer; ++received) {
    const auto [p, i] = q.pop();  // blocking
    ASSERT_EQ(i, next_expected[p]) << "producer " << p;
    ++next_expected[p];
  }
  for (auto& t : producers) {
    t.join();
  }
  EXPECT_TRUE(q.approx_empty());
}

TEST(MpscQueue, BlockingPopWakesOnPush) {
  MpscQueue<int> q;
  std::atomic<int> got{-1};
  std::thread consumer([&] { got.store(q.pop()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(got.load(), -1);
  q.push(99);
  consumer.join();
  EXPECT_EQ(got.load(), 99);
}

TEST(MpscQueue, MoveOnlyPayloads) {
  MpscQueue<std::unique_ptr<int>> q;
  q.push(std::make_unique<int>(5));
  auto v = q.try_pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 5);
}

}  // namespace
}  // namespace gpsa
