// Unit tests for the util substrate: status/result, config, stats, rng,
// the lock-free queues (including multi-producer stress), and the
// environment knob table with every reader that goes through it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "apps/pagerank.hpp"
#include "apps/pagerank_delta.hpp"
#include "cluster/cluster_net.hpp"
#include "core/engine.hpp"
#include "graph/csr_v2.hpp"
#include "harness/experiment.hpp"
#include "io/io_backend.hpp"
#include "metrics/io_model.hpp"
#include "platform/file_util.hpp"
#include "service/graph_service.hpp"
#include "test_support.hpp"
#include "util/config.hpp"
#include "util/knobs.hpp"
#include "util/lockdep.hpp"
#include "util/logging.hpp"
#include "util/mpsc_queue.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/status.hpp"
#include "util/thread.hpp"

namespace gpsa {
namespace {

using testing::ScopedEnv;

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
  EXPECT_EQ(c.get_uint("alpha", 0).value(), 3U);
  EXPECT_TRUE(c.get_bool("flag", false).value());
  EXPECT_EQ(c.get_string("name", ""), "x y");
  ASSERT_EQ(c.positional().size(), 1U);
  EXPECT_EQ(c.positional()[0], "pos1");
}

TEST(Config, TypedGettersDefaultWhenUnsetAndRejectMalformedValues) {
  Config c;
  c.set("top", "12");
  c.set("ratio", "0.75");
  c.set("symmetrize", "off");
  c.set("bad_top", "3x");
  c.set("bad_ratio", "0.5.1");
  c.set("bad_symmetrize", "maybe");

  EXPECT_EQ(c.get_uint("missing", 7).value(), 7U);
  EXPECT_DOUBLE_EQ(c.get_double("missing", 2.5).value(), 2.5);
  EXPECT_TRUE(c.get_bool("missing", true).value());

  EXPECT_EQ(c.get_uint("top", 7).value(), 12U);
  EXPECT_DOUBLE_EQ(c.get_double("ratio", 2.5).value(), 0.75);
  EXPECT_FALSE(c.get_bool("symmetrize", true).value());

  // The knob table's rule: the whole text must spell the type.
  const Status bad[] = {c.get_uint("bad_top", 7).status(),
                        c.get_uint("ratio", 7).status(),
                        c.get_double("bad_ratio", 2.5).status(),
                        c.get_bool("bad_symmetrize", true).status()};
  const char* const names[] = {"--bad_top='3x'", "--ratio='0.75'",
                               "--bad_ratio='0.5.1'",
                               "--bad_symmetrize='maybe'"};
  for (std::size_t i = 0; i < std::size(bad); ++i) {
    EXPECT_EQ(bad[i].code(), StatusCode::kInvalidArgument) << names[i];
    EXPECT_NE(bad[i].to_string().find(names[i]), std::string::npos)
        << bad[i].to_string();
  }
}

TEST(Config, GetUintRejectsAValueAboveItsMaximum) {
  // A caller narrowing to a smaller type passes that type's maximum, so
  // 2^32 + 1 is an error instead of a silent 1.
  Config c;
  c.set("top", "4294967297");
  c.set("scale", "31");
  EXPECT_EQ(c.get_uint("top", 5).value(), 4294967297ULL);
  const Status narrowed = c.get_uint("top", 5, 0xffffffffU).status();
  EXPECT_EQ(narrowed.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(narrowed.message().find("--top='4294967297'"), std::string::npos)
      << narrowed.to_string();
  EXPECT_NE(narrowed.message().find("[0, 4294967295]"), std::string::npos)
      << narrowed.to_string();
  EXPECT_EQ(c.get_uint("scale", 14, 31).value(), 31U);  // inclusive
  EXPECT_FALSE(c.get_uint("scale", 14, 30).is_ok());
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

// --- Knobs -------------------------------------------------------------------

/// Expects an InvalidArgument naming the knob, the value and the range.
template <typename T>
void expect_rejected(const Result<T>& result, const std::string& name,
                     const std::string& value, const std::string& range) {
  ASSERT_FALSE(result.is_ok()) << name << "=" << value << " accepted";
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  const std::string& message = result.status().message();
  EXPECT_NE(message.find(name), std::string::npos) << message;
  EXPECT_NE(message.find("'" + value + "'"), std::string::npos) << message;
  EXPECT_NE(message.find(range), std::string::npos) << message;
}

TEST(Knobs, OneRowPerKnobAndEveryDefaultParsesOrIsRequired) {
  EXPECT_EQ(std::size(kKnobTable), 22U);
  std::set<std::string> names;
  for (std::size_t row = 0; row < std::size(kKnobTable); ++row) {
    const KnobSpec& spec = kKnobTable[row];
    SCOPED_TRACE(spec.name);
    EXPECT_EQ(std::string(spec.name).rfind("GPSA_", 0), 0U);
    EXPECT_TRUE(names.insert(spec.name).second) << "duplicate row";
    EXPECT_FALSE(spec.doc.empty());
    ScopedEnv unset(spec.name, nullptr);
    const KnobName which(row);
    bool ok = false;
    switch (spec.kind) {
      case KnobKind::kUnsigned:
        ok = knob<std::uint64_t>(which).is_ok();
        break;
      case KnobKind::kFloat:
        ok = knob<double>(which).is_ok();
        break;
      case KnobKind::kBool:
        ok = knob<bool>(which).is_ok();
        break;
      case KnobKind::kEnum:
      case KnobKind::kText:
        ok = knob<std::string>(which).is_ok();
        break;
    }
    // Only the cluster rank rows have no default: a rank must be named.
    const bool required =
        spec.fallback.empty() && spec.kind != KnobKind::kText;
    EXPECT_EQ(required,
              std::string(spec.name).rfind("GPSA_CLUSTER_RANK", 0) == 0);
    EXPECT_EQ(ok, !required) << "default '" << spec.fallback << "'";
  }
}

TEST(Knobs, UnsignedKind) {
  const char* kName = "GPSA_BENCH_RUNS";
  const std::string kRange = "an integer in [1, 1000]";
  auto runs = [] { return knob<std::uint64_t>("GPSA_BENCH_RUNS"); };
  {
    ScopedEnv env(kName, nullptr);
    EXPECT_EQ(runs().value(), 3U);
  }
  {
    ScopedEnv env(kName, "");
    EXPECT_EQ(runs().value(), 3U);
  }
  for (const char* good : {"1", "7", "1000"}) {
    ScopedEnv env(kName, good);
    EXPECT_EQ(runs().value(), std::stoull(good));
  }
  for (const char* bad : {"4x", "x4", " 4", "+4", "-1", "4.0", "0x10"}) {
    ScopedEnv env(kName, bad);
    expect_rejected(runs(), kName, bad, kRange);
  }
  for (const char* out_of_range : {"0", "1001", "18446744073709551616"}) {
    ScopedEnv env(kName, out_of_range);
    expect_rejected(runs(), kName, out_of_range, kRange);
  }
}

TEST(Knobs, FloatKind) {
  // GPSA_MODEL_DISK_MBPS=abc used to parse to 0, which switches the
  // modeled out-of-core column off.
  const char* kName = "GPSA_MODEL_DISK_MBPS";
  const std::string kRange = "a number in [0, 1000000]";
  auto mbps = [] { return knob<double>("GPSA_MODEL_DISK_MBPS"); };
  {
    ScopedEnv env(kName, "");
    EXPECT_EQ(mbps().value(), 120.0);
  }
  for (const char* good : {"0", "250.5", "1e3", "1000000"}) {
    ScopedEnv env(kName, good);
    EXPECT_EQ(mbps().value(), std::stod(good));
  }
  for (const char* bad : {"abc", "12MB", "1,5"}) {
    ScopedEnv env(kName, bad);
    expect_rejected(mbps(), kName, bad, kRange);
  }
  for (const char* out_of_range : {"-1", "1e7", "nan", "inf"}) {
    ScopedEnv env(kName, out_of_range);
    expect_rejected(mbps(), kName, out_of_range, kRange);
  }
}

TEST(Knobs, ModelBandwidthWarnsAndKeepsTheModelOn) {
  // The bandwidth is latched on first use; nothing else in this binary
  // reads it, so this test's setting is the one latched.
  ScopedEnv env("GPSA_MODEL_DISK_MBPS", "abc");
  EXPECT_EQ(model_disk_bandwidth_bytes_per_sec(), 120.0 * 1024.0 * 1024.0);
}

TEST(Knobs, BoolKindAcceptsOneSpellingSetEverywhere) {
  const char* kName = "GPSA_IO_DROP_BEHIND";
  auto drop = [] { return knob<bool>("GPSA_IO_DROP_BEHIND"); };
  {
    ScopedEnv env(kName, nullptr);
    EXPECT_TRUE(drop().value());
  }
  for (const char* on : {"1", "true", "on", "yes"}) {
    ScopedEnv env(kName, on);
    EXPECT_TRUE(drop().value()) << on;
  }
  for (const char* off : {"0", "false", "off", "no"}) {
    ScopedEnv env(kName, off);
    EXPECT_FALSE(drop().value()) << off;
  }
  for (const char* bad : {"maybe", "TRUE", "2"}) {
    ScopedEnv env(kName, bad);
    expect_rejected(drop(), kName, bad, "1|0|true|false|on|off|yes|no");
  }
}

TEST(Knobs, LockdepLatchTakesEveryBoolSpelling) {
  // GPSA_LOCKDEP=true used to leave lockdep off. The latch is re-armed by
  // hand and restored; nothing locks between the two.
  const int saved = lockdep::detail::g_state.load();
  for (const auto& [value, state] :
       {std::pair{"true", 2}, {"yes", 2}, {"1", 2}, {"off", 1},
        {"maybe", 1}}) {
    ScopedEnv env("GPSA_LOCKDEP", value);
    lockdep::detail::g_state.store(0);
    EXPECT_EQ(lockdep::detail::latch_from_env(), state) << value;
  }
  lockdep::detail::g_state.store(saved);
}

TEST(Knobs, EnumKind) {
  const char* kName = "GPSA_CSR_ORDER";
  {
    ScopedEnv env(kName, nullptr);
    EXPECT_EQ(knob<std::string>("GPSA_CSR_ORDER").value(), "none");
  }
  {
    ScopedEnv env(kName, "degree");
    EXPECT_EQ(knob<std::string>("GPSA_CSR_ORDER").value(), "degree");
    EXPECT_EQ(resolve_csr_order(std::nullopt), CsrOrder::kDegree);
    EXPECT_EQ(resolve_csr_order(CsrOrder::kBfs), CsrOrder::kBfs);
  }
  for (const char* bad : {"sideways", "Degree", "degree|bfs", "|"}) {
    ScopedEnv env(kName, bad);
    expect_rejected(knob<std::string>("GPSA_CSR_ORDER"), kName, bad,
                    "none|degree|bfs");
    // resolve_csr_order cannot carry a Status: it warns and uses none.
    EXPECT_EQ(resolve_csr_order(std::nullopt), CsrOrder::kNone);
  }
  ScopedEnv env("GPSA_CSR_FORMAT", "v3");
  EXPECT_EQ(resolve_csr_format(std::nullopt), CsrFormat::kV1);
  EXPECT_EQ(resolve_csr_format(CsrFormat::kV2), CsrFormat::kV2);
}

TEST(Knobs, TextKind) {
  {
    ScopedEnv env("GPSA_BENCH_JSON", nullptr);
    EXPECT_EQ(knob<std::string>("GPSA_BENCH_JSON").value(), "");
  }
  ScopedEnv env("GPSA_BENCH_JSON", "out dir/result.json");
  EXPECT_EQ(knob<std::string>("GPSA_BENCH_JSON").value(),
            "out dir/result.json");
}

TEST(Knobs, KnobOrDefaultWarnsOnceAndUsesTheDefault) {
  std::vector<std::string> warnings;
  set_log_sink([&](LogLevel level, std::string_view line) {
    if (level == LogLevel::kWarn) {
      warnings.emplace_back(line);
    }
  });
  {
    ScopedEnv scale("GPSA_BENCH_SCALE", "huge");
    ScopedEnv runs("GPSA_BENCH_RUNS", "2");
    const ExperimentOptions options = ExperimentOptions::from_env();
    EXPECT_EQ(options.scale, 0.25);
    EXPECT_EQ(options.runs, 2U);
  }
  set_log_sink(nullptr);
  ASSERT_EQ(warnings.size(), 1U);
  EXPECT_NE(warnings[0].find("GPSA_BENCH_SCALE='huge'"), std::string::npos)
      << warnings[0];
}

TEST(Knobs, DeltaEpsWarnsAndDefaults) {
  {
    ScopedEnv env("GPSA_DELTA_EPS", nullptr);
    EXPECT_FLOAT_EQ(resolve_delta_eps(std::nullopt), 1e-7F);
    EXPECT_FLOAT_EQ(resolve_delta_eps(0.5F), 0.5F);
  }
  {
    ScopedEnv env("GPSA_DELTA_EPS", "1e-3");
    EXPECT_FLOAT_EQ(resolve_delta_eps(std::nullopt), 1e-3F);
    EXPECT_FLOAT_EQ(resolve_delta_eps(0.25F), 0.25F);  // option beats env
  }
  for (const char* bad : {"not-a-number", "-1e-3", "2"}) {
    ScopedEnv env("GPSA_DELTA_EPS", bad);
    EXPECT_FLOAT_EQ(resolve_delta_eps(std::nullopt), 1e-7F) << bad;
  }
}

TEST(Knobs, ThreadsTakeNoPrefixAndAreBounded) {
  // Only the knob and default_worker_count are exercised: no scheduler
  // starts at any of these values.
  ScopedEnv unset("GPSA_THREADS", nullptr);
  const unsigned hardware = default_worker_count();
  // GPSA_THREADS=4x used to run 4 workers. Pick a prefix that is not the
  // hardware default, so taking it shows.
  const std::string prefixed = std::to_string(hardware + 1) + "x";
  for (const std::string& bad : {prefixed, std::string("1025")}) {
    ScopedEnv env("GPSA_THREADS", bad.c_str());
    expect_rejected(knob<std::uint64_t>("GPSA_THREADS"), "GPSA_THREADS", bad,
                    "[0, 1024]");
    EXPECT_EQ(default_worker_count(), hardware);
  }
  ScopedEnv env("GPSA_THREADS", "1024");
  EXPECT_EQ(knob<std::uint64_t>("GPSA_THREADS").value(), 1024U);
}

TEST(Knobs, ServiceLimitsAreBoundedAndStrict) {
  for (const char* bad : {"0", "1025", "abc", "8 jobs"}) {
    ScopedEnv env("GPSA_SERVICE_MAX_JOBS", bad);
    expect_rejected(knob<std::uint64_t>("GPSA_SERVICE_MAX_JOBS"),
                    "GPSA_SERVICE_MAX_JOBS", bad, "[1, 1024]");
  }
  for (const char* bad : {"0", "1048577", "lots"}) {
    ScopedEnv env("GPSA_SERVICE_MAX_QUEUE", bad);
    expect_rejected(knob<std::uint64_t>("GPSA_SERVICE_MAX_QUEUE"),
                    "GPSA_SERVICE_MAX_QUEUE", bad, "[1, 1048576]");
  }
}

TEST(Knobs, ServiceOpenRejectsMalformedLimits) {
  // A malformed limit used to fall back to the default silently. These
  // values have no thread count to start, so open() is safe to call.
  const EdgeList graph = testing::diamond_graph();
  for (const char* name : {"GPSA_SERVICE_MAX_JOBS", "GPSA_SERVICE_MAX_QUEUE"}) {
    ScopedEnv env(name, "abc");
    const auto service = GraphService::open_from_edges(graph, ServiceOptions{});
    ASSERT_FALSE(service.is_ok()) << name;
    EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument);
  }
  // Explicit options beat the environment.
  ScopedEnv env("GPSA_SERVICE_MAX_JOBS", "abc");
  ServiceOptions options;
  options.max_concurrent_jobs = 1;
  options.max_queued_jobs = 4;
  options.scheduler_workers = 1;
  EXPECT_TRUE(GraphService::open_from_edges(graph, options).is_ok());
}

TEST(Knobs, IoOptionsRejectBadEnvironmentAndPreferExplicitFields) {
  // GPSA_READAHEAD_MB and GPSA_IO_BLOCK_KB used to be shifted into bytes
  // unchecked: these values wrapped to 8 MiB and 256 KiB.
  const struct {
    const char* name;
    const char* value;
    const char* range;
  } bad[] = {
      {"GPSA_READAHEAD_MB", "17592186044424", "[0, 65536]"},
      {"GPSA_IO_BLOCK_KB", "18014398509482240", "[4, 65536]"},
      {"GPSA_IO_BLOCK_KB", "2", "[4, 65536]"},
      {"GPSA_IO_THREADS", "0", "[1, 64]"},
      {"GPSA_IO_DROP_BEHIND", "maybe", "1|0|true|false|on|off|yes|no"},
      {"GPSA_IO_BACKEND", "floppy", "mmap|pread|uring"},
  };
  for (const auto& knob_case : bad) {
    ScopedEnv env(knob_case.name, knob_case.value);
    expect_rejected(IoOptions{}.resolve(), knob_case.name, knob_case.value,
                    knob_case.range);
  }

  // Every field set explicitly: the environment is not even parsed.
  ScopedEnv backend("GPSA_IO_BACKEND", "floppy");
  ScopedEnv readahead("GPSA_READAHEAD_MB", "-1");
  ScopedEnv drop("GPSA_IO_DROP_BEHIND", "maybe");
  ScopedEnv block("GPSA_IO_BLOCK_KB", "big");
  ScopedEnv threads("GPSA_IO_THREADS", "many");
  IoOptions options;
  options.backend = IoBackendKind::kPread;
  options.readahead_bytes = 1U << 20;
  options.drop_behind = false;
  options.block_bytes = 64U << 10;
  options.io_threads = 3;
  const auto config = options.resolve();
  ASSERT_TRUE(config.is_ok()) << config.status().to_string();
  EXPECT_EQ(config.value().backend, IoBackendKind::kPread);
  EXPECT_EQ(config.value().readahead_bytes, std::size_t{1} << 20);
  EXPECT_FALSE(config.value().drop_behind);
  EXPECT_EQ(config.value().block_bytes, std::size_t{64} << 10);
  EXPECT_EQ(config.value().io_threads, 3U);
}

TEST(Knobs, CheckpointIntervalRejectsBadEnvironment) {
  // run_job returns the knob's error; an explicit interval beats it.
  const EdgeList graph = testing::diamond_graph();
  const PageRankProgram program(3);
  EngineOptions options;
  options.checkpoint_each_superstep = true;
  for (const char* bad : {"0", "every", "1000000001"}) {
    ScopedEnv env("GPSA_CHECKPOINT_INTERVAL", bad);
    const auto result = Engine::run(graph, program, options);
    ASSERT_FALSE(result.is_ok()) << bad;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("GPSA_CHECKPOINT_INTERVAL"),
              std::string::npos);
  }
  ScopedEnv env("GPSA_CHECKPOINT_INTERVAL", "every");
  options.checkpoint_interval = 2;
  EXPECT_TRUE(Engine::run(graph, program, options).is_ok());
}

TEST(Knobs, ClusterNetOptionsFromEnvironment) {
  ScopedEnv rank("GPSA_CLUSTER_RANK", "1");
  ScopedEnv ranks("GPSA_CLUSTER_RANKS", "2");
  ScopedEnv port("GPSA_CLUSTER_PORT", nullptr);
  ScopedEnv timeout("GPSA_NET_TIMEOUT_MS", "5000");
  const auto net = ClusterNetOptions::from_env();
  ASSERT_TRUE(net.is_ok()) << net.status().to_string();
  EXPECT_EQ(net.value().rank, 1U);
  EXPECT_EQ(net.value().ranks, 2U);
  EXPECT_EQ(net.value().base_port, 29600);
  EXPECT_EQ(net.value().timeout_ms, 5000);
  {
    ScopedEnv bad("GPSA_NET_TIMEOUT_MS", "0");
    expect_rejected(ClusterNetOptions::from_env(), "GPSA_NET_TIMEOUT_MS", "0",
                    "[1, 3600000]");
  }
  {
    ScopedEnv bad("GPSA_CLUSTER_RANKS", "1025");
    expect_rejected(ClusterNetOptions::from_env(), "GPSA_CLUSTER_RANKS",
                    "1025", "[1, 1024]");
  }
  {
    ScopedEnv bad("GPSA_CLUSTER_PORT", "65535");  // rank 1 would be 65536
    EXPECT_FALSE(ClusterNetOptions::from_env().is_ok());
  }
  ScopedEnv unset("GPSA_CLUSTER_RANKS", nullptr);
  EXPECT_FALSE(ClusterNetOptions::from_env().is_ok()) << "ranks required";
}

}  // namespace
}  // namespace gpsa
