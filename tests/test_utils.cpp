// Tests for thread pool, CLI parser, tables and error macros.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <thread>

#include "utils/cli.hpp"
#include "utils/error.hpp"
#include "utils/histogram.hpp"
#include "utils/stopwatch.hpp"
#include "utils/table.hpp"
#include "utils/thread_pool.hpp"

namespace fedclust {
namespace {

// -- error macros ---------------------------------------------------------

TEST(Error, CheckThrowsWithContext) {
  try {
    FEDCLUST_CHECK(1 == 2, "custom message " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom message 42"), std::string::npos);
  }
}

TEST(Error, CheckWithoutMessage) {
  EXPECT_THROW(FEDCLUST_CHECK(false), Error);
  EXPECT_NO_THROW(FEDCLUST_CHECK(true));
}

TEST(Error, FailThrowsLikeAFailedCheck) {
  try {
    FEDCLUST_FAIL("unknown kind " << 7);
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("check failed: false"), std::string::npos);
    EXPECT_NE(what.find("unknown kind 7"), std::string::npos);
    return;
  }
  FAIL() << "expected throw";
}

// -- thread pool ------------------------------------------------------------

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  auto f = pool.submit([] { return 7 * 6; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(0, 100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForMoreItemsThanThreads) {
  ThreadPool pool(2);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(0, 1000, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 1000u * 999u / 2);
}

TEST(ThreadPool, TaskExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw Error("boom"); });
  EXPECT_THROW(f.get(), Error);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 10,
                                 [&](std::size_t i) {
                                   if (i == 3) throw Error("boom");
                                 }),
               Error);
}

TEST(ThreadPool, ParallelForRebalancesAroundASlowIndex) {
  // Index 0 blocks until every other index has run. Contiguous blocks
  // (3/3/3/1 on 4 workers) would park indices 1 and 2 behind it; with
  // per-index claiming the other three workers drain the rest.
  ThreadPool pool(4);
  constexpr std::size_t kN = 10;
  std::mutex m;
  std::condition_variable cv;
  std::size_t others_done = 0;
  bool drained = false;
  pool.parallel_for(0, kN, [&](std::size_t i) {
    std::unique_lock lock(m);
    if (i == 0) {
      drained = cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return others_done == kN - 1; });
    } else {
      ++others_done;
      cv.notify_all();
    }
  });
  EXPECT_TRUE(drained);
}

TEST(ThreadPool, ParallelForRethrowsLowestFailingIndex) {
  // Index 7 throws first; index 2 throws later, and its error must win.
  ThreadPool pool(4);
  std::atomic<bool> seven_thrown{false};
  try {
    pool.parallel_for(0, 10, [&](std::size_t i) {
      if (i == 2) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!seven_thrown.load() &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        throw Error("index 2");
      }
      if (i == 7) {
        seven_thrown.store(true);
        throw Error("index 7");
      }
    });
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "index 2");
  }
  EXPECT_TRUE(seven_thrown.load());
}

TEST(ThreadPool, SingleThreadStillWorks) {
  ThreadPool pool(1);
  std::vector<int> out(10, 0);
  pool.parallel_for(0, 10, [&](std::size_t i) { out[i] = static_cast<int>(i); });
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[i], i);
}

// -- CLI parser ------------------------------------------------------------

TEST(Cli, ParsesTypedFlags) {
  CliParser cli("prog", "test");
  cli.add_int("rounds", 10, "rounds");
  cli.add_double("beta", 0.1, "beta");
  cli.add_string("dataset", "cifar10", "dataset");
  cli.add_flag("quick", "quick mode");

  const char* argv[] = {"prog", "--rounds", "30", "--beta=0.5", "--quick"};
  cli.parse(5, argv);
  EXPECT_EQ(cli.get_int("rounds"), 30);
  EXPECT_DOUBLE_EQ(cli.get_double("beta"), 0.5);
  EXPECT_EQ(cli.get_string("dataset"), "cifar10");  // default kept
  EXPECT_TRUE(cli.get_flag("quick"));
}

TEST(Cli, DefaultsWhenUnset) {
  CliParser cli("prog", "test");
  cli.add_int("n", 5, "n");
  cli.add_flag("verbose", "v");
  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  EXPECT_EQ(cli.get_int("n"), 5);
  EXPECT_FALSE(cli.get_flag("verbose"));
}

TEST(Cli, RejectsUnknownFlag) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_THROW(cli.parse(3, argv), Error);
}

TEST(Cli, RejectsBadValue) {
  CliParser cli("prog", "test");
  cli.add_int("n", 1, "n");
  const char* argv[] = {"prog", "--n", "abc"};
  EXPECT_THROW(cli.parse(3, argv), Error);
}

TEST(Cli, RejectsMissingValue) {
  CliParser cli("prog", "test");
  cli.add_int("n", 1, "n");
  const char* argv[] = {"prog", "--n"};
  EXPECT_THROW(cli.parse(2, argv), Error);
}

TEST(Cli, RejectsWrongTypeAccess) {
  CliParser cli("prog", "test");
  cli.add_int("n", 1, "n");
  const char* argv[] = {"prog"};
  cli.parse(1, argv);
  EXPECT_THROW(cli.get_double("n"), Error);
  EXPECT_THROW(cli.get_int("missing"), Error);
}

// -- tables ---------------------------------------------------------------

TEST(Table, RendersAlignedColumns) {
  TextTable t({"Method", "Acc"});
  t.new_row().add("FedAvg").add(38.25, 2);
  t.new_row().add("FedClust").add(60.25, 2);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("Method"), std::string::npos);
  EXPECT_NE(s.find("FedClust"), std::string::npos);
  EXPECT_NE(s.find("60.25"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Table, CsvEscapesSpecialCells) {
  TextTable t({"a", "b"});
  t.new_row().add("x,y").add("say \"hi\"");
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, CsvQuotesCarriageReturn) {
  // Regression: a bare \r (e.g. from a CRLF-sourced label) must trigger
  // quoting just like \n, or the row splits under RFC-4180 readers.
  TextTable t({"a"});
  t.new_row().add("line\rbreak");
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"line\rbreak\""), std::string::npos);
}

TEST(Table, WriteCsvRoundTrip) {
  TextTable t({"col"});
  t.new_row().add(7ll);
  const std::string path = "/tmp/fedclust_table_test.csv";
  t.write_csv(path);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "col");
  std::getline(in, line);
  EXPECT_EQ(line, "7");
  std::filesystem::remove(path);
}

TEST(Table, RowOverflowThrows) {
  TextTable t({"only"});
  t.new_row().add("x");
  EXPECT_THROW(t.add("y"), Error);
  EXPECT_THROW(TextTable({}), Error);
}

TEST(Table, FormatMeanStd) {
  EXPECT_EQ(format_mean_std(60.254, 0.578), "60.25 ± 0.58");
  EXPECT_EQ(format_mean_std(1.0, 0.5, 1), "1.0 ± 0.5");
}

// -- stopwatch -----------------------------------------------------------

// -- streaming histogram --------------------------------------------------

TEST(StreamingHistogram, EmptyReportsNaN) {
  const utils::StreamingHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(std::isnan(h.min()));
  EXPECT_TRUE(std::isnan(h.max()));
  EXPECT_TRUE(std::isnan(h.mean()));
  EXPECT_TRUE(std::isnan(h.p50()));
}

TEST(StreamingHistogram, ExactStatsAndBoundedQuantileError) {
  utils::StreamingHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 1000.0);
  EXPECT_NEAR(h.mean(), 500.5, 1e-9);
  // Geometric buckets with growth 1.02 bound relative error at 2%.
  EXPECT_NEAR(h.p50(), 500.0, 500.0 * 0.02);
  EXPECT_NEAR(h.p99(), 990.0, 990.0 * 0.02);
  EXPECT_NEAR(h.p999(), 999.0, 999.0 * 0.02);
  EXPECT_EQ(h.percentile(0.0), 1.0);
  EXPECT_EQ(h.percentile(100.0), 1000.0);
}

TEST(StreamingHistogram, QuantilesClampIntoObservedRange) {
  utils::StreamingHistogram h;
  h.record(3.0);
  // One sample: every quantile IS that sample despite bucket rounding.
  EXPECT_EQ(h.p50(), 3.0);
  EXPECT_EQ(h.p999(), 3.0);
  // Values at or below the resolution floor share bucket 0.
  utils::StreamingHistogram tiny;
  tiny.record(0.0);
  tiny.record(1e-6);
  EXPECT_EQ(tiny.min(), 0.0);
  EXPECT_LE(tiny.p50(), 1e-4);
}

TEST(StreamingHistogram, MergeEqualsCombinedRecording) {
  utils::StreamingHistogram a, b, combined;
  for (int i = 1; i <= 400; ++i) {
    a.record(static_cast<double>(i));
    combined.record(static_cast<double>(i));
  }
  for (int i = 401; i <= 1000; ++i) {
    b.record(static_cast<double>(i));
    combined.record(static_cast<double>(i));
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_EQ(a.p50(), combined.p50());
  EXPECT_EQ(a.p99(), combined.p99());

  // Mismatched geometry must be rejected, not silently mixed.
  utils::StreamingHistogram other_geometry(1e-4, 1.5);
  EXPECT_THROW(a.merge(other_geometry), Error);
}

TEST(StreamingHistogram, ClearResetsEverything) {
  utils::StreamingHistogram h;
  h.record(5.0);
  h.record(7.0);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(std::isnan(h.p50()));
  h.record(2.0);
  EXPECT_EQ(h.p50(), 2.0);
  EXPECT_THROW(h.record(-1.0), Error);
  EXPECT_THROW(h.record(std::numeric_limits<double>::infinity()), Error);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  const double t0 = sw.seconds();
  EXPECT_GE(t0, 0.0);
  // A tight loop with work should advance the clock monotonically.
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(sw.seconds(), t0);
  sw.restart();
  EXPECT_LT(sw.seconds(), 1.0);
}

}  // namespace
}  // namespace fedclust
