// The deterministic job-graph executor (util/jobs.hpp) that the oracle
// pipeline, DRC sharding, serve dispatch and parallelFor all drain through:
// DAG shapes (chain, diamond, fan-out), slot-write determinism across
// thread counts, lowest-id exception propagation with transitive
// poisoning, nested-run serial degradation, and the one-shot/validation
// contract.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/arena.hpp"
#include "util/executor.hpp"
#include "util/jobs.hpp"

namespace pao::util {
namespace {

TEST(Arena, BytesRequestedIsExactAcrossWorkerArenas) {
  // Requests from every thread's arena count, the calling thread's and
  // those of workers that have since exited.
  for (int threads : {1, 4}) {
    Arena::resetBytesRequested();
    JobGraph g;
    g.addJobRange(100, [](std::size_t i) {
      ArenaScope scope(scratchArena());
      scratchArena().allocate(i, 1);  // 0 bytes count as 1
    });
    g.run(threads);
    EXPECT_EQ(Arena::bytesRequested(), 1u + 99u * 100u / 2u) << threads;
  }
}

TEST(JobGraph, EmptyGraphRunsAndReportsZeroJobs) {
  JobGraph g;
  g.run(4);
  EXPECT_EQ(g.stats().jobs, 0u);
  EXPECT_EQ(g.stats().executed, 0u);
}

TEST(JobGraph, ChainRunsInDependencyOrder) {
  for (int threads : {1, 4, 0}) {
    JobGraph g;
    std::vector<int> order;
    JobId prev = 0;
    for (int i = 0; i < 8; ++i) {
      const JobId deps[] = {prev};
      const auto body = [&order, i] { order.push_back(i); };
      prev = (i == 0) ? g.addJob(body) : g.addJob(body, deps);
    }
    g.run(threads);
    std::vector<int> want(8);
    std::iota(want.begin(), want.end(), 0);
    EXPECT_EQ(order, want) << "threads " << threads;
  }
}

TEST(JobGraph, DiamondJoinSeesBothBranches) {
  for (int threads : {1, 4, 0}) {
    JobGraph g;
    int a = 0, b = 0, c = 0, d = 0;
    const JobId top = g.addJob([&] { a = 1; });
    const JobId topDep[] = {top};
    const JobId left = g.addJob([&] { b = a + 10; }, topDep);
    const JobId right = g.addJob([&] { c = a + 20; }, topDep);
    const JobId join[] = {left, right};
    g.addJob([&] { d = b + c; }, join);
    g.run(threads);
    EXPECT_EQ(d, 32) << "threads " << threads;
  }
}

TEST(JobGraph, FanOutRunsEveryDependentExactlyOnce) {
  for (int threads : {1, 4, 0}) {
    JobGraph g;
    int seed = 0;
    const JobId root = g.addJob([&] { seed = 7; });
    const JobId rootDep[] = {root};
    std::vector<std::atomic<int>> hits(64);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      g.addJob([&, i] { hits[i] += seed; }, rootDep);
    }
    g.run(threads);
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 7) << "index " << i << " threads " << threads;
    }
    EXPECT_EQ(g.stats().executed, 65u);
  }
}

TEST(JobGraph, SlotWritesAreIdenticalAcrossThreadCounts) {
  // The determinism moat: a layered graph whose bodies write pre-sized
  // slots yields byte-identical output at any thread count.
  const auto runWith = [](int threads) {
    JobGraph g;
    std::vector<long> out(96, -1);
    std::vector<JobId> layer0(32);
    for (std::size_t i = 0; i < 32; ++i) {
      layer0[i] = g.addJob([&out, i] { out[i] = static_cast<long>(i * i); });
    }
    for (std::size_t i = 0; i < 32; ++i) {
      const JobId deps[] = {layer0[i], layer0[(i + 5) % 32]};
      g.addJob(
          [&out, i] { out[32 + i] = out[i] * 3 + out[(i + 5) % 32]; }, deps);
    }
    const JobId all0 = layer0[0];
    for (std::size_t i = 0; i < 32; ++i) {
      const JobId deps[] = {static_cast<JobId>(all0 + 32 + i)};
      g.addJob([&out, i] { out[64 + i] = out[32 + i] - out[i]; }, deps);
    }
    g.run(threads);
    return out;
  };
  const std::vector<long> serial = runWith(1);
  EXPECT_EQ(runWith(4), serial);
  EXPECT_EQ(runWith(0), serial);
}

TEST(JobGraph, AddJobRangeInvokesBodyPerIndex) {
  for (int threads : {1, 4, 0}) {
    JobGraph g;
    std::vector<int> out(50, 0);
    g.addJobRange(out.size(),
                  [&](std::size_t i) { out[i] = static_cast<int>(i) + 1; });
    g.run(threads);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], static_cast<int>(i) + 1);
    }
  }
}

TEST(JobGraph, LowestFailingIdWinsRegardlessOfSchedule) {
  for (int threads : {1, 4, 0}) {
    JobGraph g;
    // Independent failures at ids 3 and 10: the drain completes, then the
    // lowest failing id's exception is the one rethrown.
    for (int i = 0; i < 16; ++i) {
      g.addJob([i] {
        if (i == 3) throw std::runtime_error("fail-3");
        if (i == 10) throw std::runtime_error("fail-10");
      });
    }
    try {
      g.run(threads);
      FAIL() << "expected a rethrow, threads " << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "fail-3") << "threads " << threads;
    }
  }
}

TEST(JobGraph, FailurePoisonsTransitiveDependentsOnly) {
  for (int threads : {1, 4, 0}) {
    JobGraph g;
    std::atomic<int> ran{0};
    const JobId bad = g.addJob([] { throw std::runtime_error("boom"); });
    const JobId badDep[] = {bad};
    const JobId child = g.addJob([&] { ++ran; }, badDep);
    const JobId childDep[] = {child};
    g.addJob([&] { ++ran; }, childDep);  // grandchild: also poisoned
    g.addJob([&] { ++ran; });            // independent: must still run
    EXPECT_THROW(g.run(threads), std::runtime_error);
    EXPECT_EQ(ran.load(), 1) << "threads " << threads;
    EXPECT_EQ(g.stats().executed, 1u);  // the independent job only
    EXPECT_EQ(g.stats().skipped, 2u);   // child + grandchild
  }
}

TEST(JobGraph, NestedRunDegradesToSerialInsideAJob) {
  for (int threads : {1, 4, 0}) {
    JobGraph outer;
    std::vector<int> inner(40, 0);
    bool sawInside = false;
    outer.addJob([&] {
      sawInside = JobGraph::insideJob();
      JobGraph nested;
      nested.addJobRange(inner.size(),
                         [&](std::size_t i) { inner[i] = static_cast<int>(i); });
      // Degrades to the calling worker even when asked for a pool.
      nested.run(8);
    });
    outer.run(threads);
    EXPECT_TRUE(sawInside);
    for (std::size_t i = 0; i < inner.size(); ++i) {
      EXPECT_EQ(inner[i], static_cast<int>(i));
    }
  }
  EXPECT_FALSE(JobGraph::insideJob());
}

TEST(JobGraph, ParallelForInsideAJobAlsoDegrades) {
  JobGraph g;
  std::vector<int> out(16, 0);
  g.addJob([&] {
    // pao-lint: allow(executor-hygiene): this test exercises the degradation
    parallelFor(out.size(), [&](std::size_t i) { out[i] = 1; }, 4);
  });
  g.run(2);
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 16);
}

TEST(JobGraph, ForwardDependencyThrows) {
  JobGraph g;
  const JobId future[] = {5};
  EXPECT_THROW(g.addJob([] {}, future), std::logic_error);
}

TEST(JobGraph, RunningTwiceThrows) {
  JobGraph g;
  g.addJob([] {});
  g.run(1);
  EXPECT_THROW(g.run(1), std::logic_error);
  EXPECT_THROW(g.addJob([] {}), std::logic_error);
}

TEST(JobGraph, SerialOrderIsDepthFirst) {
  // With one worker, newly-ready dependents run before older ready work:
  // the B-chain hanging off A0 finishes before A1 starts.
  JobGraph g;
  std::vector<std::string> order;
  const JobId a0 = g.addJob([&] { order.push_back("a0"); });
  const JobId a0Dep[] = {a0};
  const JobId b0 = g.addJob([&] { order.push_back("b0"); }, a0Dep);
  const JobId b0Dep[] = {b0};
  g.addJob([&] { order.push_back("b1"); }, b0Dep);
  g.addJob([&] { order.push_back("a1"); });
  g.run(1);
  const std::vector<std::string> want{"a0", "b0", "b1", "a1"};
  EXPECT_EQ(order, want);
}

TEST(JobGraph, StatsCountJobsAndExecutions) {
  JobGraph g;
  g.addJobRange(10, [](std::size_t) {});
  const JobId dep[] = {3};
  g.addJob([] {}, dep);
  g.run(4);
  EXPECT_EQ(g.stats().jobs, 11u);
  EXPECT_EQ(g.stats().executed, 11u);
  EXPECT_EQ(g.stats().skipped, 0u);
}

TEST(JobGraph, ManySmallGraphsUnderOversubscription) {
  // Soak shape: repeated graphs with more workers than cores, checking the
  // wake/sleep coordination never loses a job.
  for (int round = 0; round < 20; ++round) {
    JobGraph g;
    std::atomic<int> n{0};
    g.addJobRange(32, [&](std::size_t) { ++n; });
    g.run(8);
    ASSERT_EQ(n.load(), 32) << "round " << round;
  }
}

}  // namespace
}  // namespace pao::util
