// Tests for the util substrate: bucket queue, RNG, Status.

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/bucket_queue.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/timer.h"

namespace hcore {
namespace {

TEST(BucketQueueTest, InsertPopBasics) {
  BucketQueue q(10, 5);
  EXPECT_TRUE(q.empty());
  q.Insert(3, 2);
  q.Insert(7, 2);
  q.Insert(1, 0);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_TRUE(q.Contains(3));
  EXPECT_FALSE(q.Contains(0));
  EXPECT_EQ(q.KeyOf(3), 2u);
  EXPECT_FALSE(q.BucketEmpty(2));
  EXPECT_EQ(q.PopFront(0), 1u);
  EXPECT_TRUE(q.BucketEmpty(0));
  // Both vertices in bucket 2 come out (order unspecified).
  std::set<uint32_t> got{q.PopFront(2), q.PopFront(2)};
  EXPECT_EQ(got, (std::set<uint32_t>{3, 7}));
  EXPECT_TRUE(q.empty());
}

TEST(BucketQueueTest, MoveIsO1AcrossArbitraryDistances) {
  BucketQueue q(4, 100);
  q.Insert(0, 100);
  q.Insert(1, 100);
  q.Move(0, 0);  // long-distance move, the case footnote 2 cares about
  EXPECT_EQ(q.KeyOf(0), 0u);
  EXPECT_EQ(q.KeyOf(1), 100u);
  EXPECT_EQ(q.PopFront(0), 0u);
  q.Move(1, 50);
  q.Move(1, 50);  // no-op move
  EXPECT_EQ(q.PopFront(50), 1u);
}

TEST(BucketQueueTest, RemoveUnlinksMiddleOfBucket) {
  BucketQueue q(5, 3);
  q.Insert(0, 1);
  q.Insert(1, 1);
  q.Insert(2, 1);
  q.Remove(1);
  EXPECT_FALSE(q.Contains(1));
  std::set<uint32_t> rest;
  while (!q.BucketEmpty(1)) rest.insert(q.PopFront(1));
  EXPECT_EQ(rest, (std::set<uint32_t>{0, 2}));
}

TEST(BucketQueueTest, PeelingScenario) {
  // Simulate a peeling loop: drain buckets in increasing order with
  // interleaved downward moves clamped at the current bucket.
  BucketQueue q(6, 6);
  std::vector<uint32_t> key{5, 4, 3, 3, 2, 6};
  for (uint32_t v = 0; v < 6; ++v) q.Insert(v, key[v]);
  std::vector<uint32_t> pop_keys;
  for (uint32_t k = 0; k <= 6; ++k) {
    while (!q.BucketEmpty(k)) {
      q.PopFront(k);
      pop_keys.push_back(k);
      // Every pop drags the max-key vertex down by 2 (clamped).
      for (uint32_t u = 0; u < 6; ++u) {
        if (q.Contains(u) && q.KeyOf(u) > k + 2) q.Move(u, q.KeyOf(u) - 2);
      }
    }
  }
  EXPECT_EQ(pop_keys.size(), 6u);
  EXPECT_TRUE(std::is_sorted(pop_keys.begin(), pop_keys.end()));
}

TEST(RngTest, DeterministicStreams) {
  Rng a(1), b(1), c(2);
  for (int i = 0; i < 100; ++i) {
    const double x = a.NextDouble();
    EXPECT_EQ(x, b.NextDouble());
  }
  bool differs = false;
  Rng a2(1);
  for (int i = 0; i < 10; ++i) differs |= (a2.NextDouble() != c.NextDouble());
  EXPECT_TRUE(differs);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextIndex(17), 17u);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoundedIsRoughlyUniform) {
  Rng rng(4);
  std::vector<int> hist(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++hist[rng.NextIndex(10)];
  for (int h : hist) {
    EXPECT_GT(h, kDraws / 10 * 0.9);
    EXPECT_LT(h, kDraws / 10 * 1.1);
  }
}

TEST(RngTest, NextBoolEdgeCases) {
  Rng rng(5);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.NextBool(0.3);
  EXPECT_GT(heads, 2500);
  EXPECT_LT(heads, 3500);
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndComplete) {
  Rng rng(6);
  // Sparse regime.
  auto sparse = rng.SampleWithoutReplacement(1000, 10);
  EXPECT_EQ(std::set<uint32_t>(sparse.begin(), sparse.end()).size(), 10u);
  // Dense regime.
  auto dense = rng.SampleWithoutReplacement(10, 10);
  std::sort(dense.begin(), dense.end());
  for (uint32_t i = 0; i < 10; ++i) EXPECT_EQ(dense[i], i);
  EXPECT_TRUE(rng.SampleWithoutReplacement(5, 0).empty());
}

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  Status s = Status::InvalidArgument("bad h");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "bad h");
  EXPECT_EQ(Status::Ok().ToString(), "OK");
}

TEST(StatusTest, ResultHoldsValueOrError) {
  Result<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> err(Status::NotFound("nope"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

TEST(TimerTest, MeasuresNonNegativeMonotonicTime) {
  WallTimer t;
  double a = t.ElapsedSeconds();
  double b = t.ElapsedSeconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace hcore
