// Workload-driver suite (serve/workload.h): the percentile rank formula
// (including the exact shapes the old floor(p*n) indexing got wrong), the
// log-bucket histogram against a sorted-vector oracle, Zipf sampler
// determinism and goodness-of-fit, option validation, closed-loop run
// determinism, and the service-vs-bare-index differential under a mixed
// read/write run. The multi-client cases double as the TSan leg's entry
// point for the driver's concurrency.

#include "serve/workload.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "test_util.h"

namespace hcore {
namespace {

// ---------------------------------------------------------------------------
// NearestRankIndex
// ---------------------------------------------------------------------------

TEST(NearestRankIndexTest, MatchesNearestRankDefinition) {
  // Smallest 0-based i with (i+1)/n >= p.
  EXPECT_EQ(NearestRankIndex(0.50, 1), 0u);
  EXPECT_EQ(NearestRankIndex(0.50, 2), 0u);
  EXPECT_EQ(NearestRankIndex(0.50, 3), 1u);
  EXPECT_EQ(NearestRankIndex(0.25, 4), 0u);
  EXPECT_EQ(NearestRankIndex(1.00, 7), 6u);
}

TEST(NearestRankIndexTest, FixesFloorFormulaOffByOne) {
  // The two shapes the replaced floor(p*n) indexing got wrong:
  // p50 of 100 samples is the 50th value (index 49), not the 51st.
  EXPECT_EQ(NearestRankIndex(0.50, 100), 49u);
  // p99 of n < 100 samples has a true rank below the max; floor(0.99*n)
  // returned index n-1 (the max) for every n < 100.
  EXPECT_EQ(NearestRankIndex(0.99, 50), 49u);   // here it IS the max...
  EXPECT_EQ(NearestRankIndex(0.99, 200), 197u); // ...but not once n*p+1 <= n
  EXPECT_EQ(NearestRankIndex(0.999, 200), 199u);
  EXPECT_EQ(NearestRankIndex(0.99, 101), 99u);  // floor gave 99 too; ceil-1
  EXPECT_EQ(NearestRankIndex(0.99, 300), 296u); // floor gave 297
}

TEST(NearestRankIndexTest, ClampsToValidRange) {
  EXPECT_EQ(NearestRankIndex(0.0, 10), 0u);
  EXPECT_EQ(NearestRankIndex(1.0, 10), 9u);
  for (size_t n = 1; n <= 40; ++n) {
    for (double p : {0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0}) {
      const size_t i = NearestRankIndex(p, n);
      ASSERT_LT(i, n);
      // Definition check: (i+1)/n >= p and (when i > 0) i/n < p.
      EXPECT_GE(static_cast<double>(i + 1) / n, p - 1e-12);
      if (i > 0) {
        EXPECT_LT(static_cast<double>(i) / n, p + 1e-12);
      }
    }
  }
}

TEST(NearestRankIndexDeathTest, RejectsEmptySample) {
  EXPECT_DEATH(NearestRankIndex(0.5, 0), "NearestRankIndex");
}

// ---------------------------------------------------------------------------
// ZipfSampler
// ---------------------------------------------------------------------------

TEST(ZipfSamplerTest, DeterministicAcrossIdenticalStreams) {
  ZipfSampler zipf(1000, 0.9);
  Rng a(42), b(42);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_EQ(zipf.Sample(&a), zipf.Sample(&b));
  }
}

TEST(ZipfSamplerTest, ProbabilitiesSumToOne) {
  for (double s : {0.0, 0.8, 1.2}) {
    ZipfSampler zipf(257, s);
    double sum = 0.0;
    for (uint32_t r = 0; r < zipf.n(); ++r) sum += zipf.Probability(r);
    EXPECT_NEAR(sum, 1.0, 1e-9) << "skew " << s;
  }
}

// Chi-squared goodness of fit of observed draw counts against the
// sampler's own Probability table. Fixed seed: not flaky.
double ChiSquared(const ZipfSampler& zipf, int draws, uint64_t seed) {
  Rng rng(seed);
  std::vector<int> observed(zipf.n(), 0);
  for (int i = 0; i < draws; ++i) observed[zipf.Sample(&rng)]++;
  double chi2 = 0.0;
  for (uint32_t r = 0; r < zipf.n(); ++r) {
    const double expected = draws * zipf.Probability(r);
    chi2 += (observed[r] - expected) * (observed[r] - expected) / expected;
  }
  return chi2;
}

TEST(ZipfSamplerTest, SkewedDrawsFitTheDistribution) {
  // 49 degrees of freedom: chi2 < 88 is roughly the p=0.0005 cutoff.
  ZipfSampler zipf(50, 0.8);
  EXPECT_LT(ChiSquared(zipf, 40000, 7), 88.0);
  // And the skew is real: rank 0 must dominate the tail rank.
  EXPECT_GT(zipf.Probability(0), 10.0 * zipf.Probability(49));
}

TEST(ZipfSamplerTest, ZeroSkewIsUniform) {
  ZipfSampler zipf(64, 0.0);
  for (uint32_t r = 0; r < zipf.n(); ++r) {
    EXPECT_NEAR(zipf.Probability(r), 1.0 / 64.0, 1e-12);
  }
  EXPECT_LT(ChiSquared(zipf, 40000, 11), 110.0);  // 63 dof, ~p=0.0002
}

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

TEST(LatencyHistogramTest, SmallValuesGetExactBuckets) {
  for (uint64_t ns = 0; ns < LatencyHistogram::kSubBuckets; ++ns) {
    EXPECT_EQ(LatencyHistogram::BucketIndex(ns), ns);
    EXPECT_EQ(LatencyHistogram::BucketLowerBoundNs(ns), ns);
  }
}

TEST(LatencyHistogramTest, BucketLowerBoundNeverOverstates) {
  const std::vector<uint64_t> probes = {
      0, 31, 32, 33, 1000, 123456789, uint64_t{1} << 40, ~uint64_t{0}};
  for (uint64_t ns : probes) {
    const size_t bucket = LatencyHistogram::BucketIndex(ns);
    ASSERT_LT(bucket, LatencyHistogram::kNumBuckets);
    const uint64_t lower = LatencyHistogram::BucketLowerBoundNs(bucket);
    EXPECT_LE(lower, ns);
    // ~3% relative resolution above the exact range.
    if (ns >= LatencyHistogram::kSubBuckets) {
      EXPECT_GE(lower, ns - ns / 16);
    }
  }
}

// Exact-rank percentiles against a sorted-vector oracle: samples are
// snapped to bucket lower bounds, so the histogram's answer must EQUAL
// sorted[NearestRankIndex(p, n)] — no quantization slack, no rank shift.
std::vector<uint64_t> SnappedGeometricSamples(size_t n) {
  std::vector<uint64_t> values;
  double v = 1000.0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t raw = static_cast<uint64_t>(v);
    values.push_back(LatencyHistogram::BucketLowerBoundNs(
        LatencyHistogram::BucketIndex(raw)));
    v *= 1.1;  // > 3% apart: every sample lands in its own bucket
  }
  return values;
}

TEST(LatencyHistogramTest, PercentilesAreExactRank) {
  for (size_t n : {1u, 7u, 50u, 100u, 101u, 200u}) {
    std::vector<uint64_t> values = SnappedGeometricSamples(n);
    // Record in shuffled order; percentiles must not care.
    std::vector<uint64_t> shuffled = values;
    Rng rng(99);
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.NextIndex(i)]);
    }
    LatencyHistogram hist;
    for (uint64_t ns : shuffled) hist.RecordNs(ns);
    std::sort(values.begin(), values.end());
    EXPECT_EQ(hist.count(), n);
    EXPECT_EQ(hist.max_ns(), values.back());
    for (double p : {0.01, 0.50, 0.90, 0.99, 0.999, 1.0}) {
      EXPECT_EQ(hist.PercentileNs(p), values[NearestRankIndex(p, n)])
          << "n=" << n << " p=" << p;
    }
  }
}

TEST(LatencyHistogramTest, P50Of100DistinctSamplesIsThe50thValue) {
  // The old floor(p*n) shape, end to end: with 100 distinct-bucket samples
  // the median must be the 50th smallest, not the 51st.
  std::vector<uint64_t> values = SnappedGeometricSamples(100);
  LatencyHistogram hist;
  for (uint64_t ns : values) hist.RecordNs(ns);
  std::sort(values.begin(), values.end());
  EXPECT_EQ(hist.PercentileNs(0.50), values[49]);
  EXPECT_NE(hist.PercentileNs(0.50), values[50]);
}

TEST(LatencyHistogramTest, MergeEqualsCombinedRecording) {
  std::vector<uint64_t> all = SnappedGeometricSamples(120);
  LatencyHistogram left, right, combined;
  for (size_t i = 0; i < all.size(); ++i) {
    (i % 2 == 0 ? left : right).RecordNs(all[i]);
    combined.RecordNs(all[i]);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), combined.count());
  EXPECT_EQ(left.max_ns(), combined.max_ns());
  EXPECT_DOUBLE_EQ(left.MeanMs(), combined.MeanMs());
  for (double p : {0.25, 0.5, 0.99, 0.999}) {
    EXPECT_EQ(left.PercentileNs(p), combined.PercentileNs(p));
  }
}

TEST(LatencyHistogramTest, EmptyHistogramIsZero) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.PercentileNs(0.99), 0u);
  EXPECT_EQ(hist.MeanMs(), 0.0);
}

TEST(LatencyHistogramTest, RecordSecondsConvertsToNanoseconds) {
  LatencyHistogram hist;
  hist.RecordSeconds(0.001);  // 1 ms
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_NEAR(hist.PercentileMs(1.0), 1.0, 0.05);
}

// ---------------------------------------------------------------------------
// Option validation
// ---------------------------------------------------------------------------

TEST(WorkloadOptionsTest, DefaultsAreValid) {
  std::string error;
  EXPECT_TRUE(WorkloadMix().Validate(&error)) << error;
  EXPECT_TRUE(ValidateWorkloadOptions(WorkloadOptions(), &error)) << error;
}

TEST(WorkloadOptionsTest, RejectsMixNotSummingToOne) {
  WorkloadMix mix;
  mix.write = 0.5;  // defaults sum to 1; now 1.4
  std::string error;
  EXPECT_FALSE(mix.Validate(&error));
  EXPECT_NE(error.find("sum"), std::string::npos) << error;
  WorkloadOptions options;
  options.mix = mix;
  EXPECT_FALSE(ValidateWorkloadOptions(options, &error));
}

TEST(WorkloadOptionsTest, RejectsNegativeRatio) {
  WorkloadMix mix;
  mix.core = -0.1;
  mix.write = 0.7;  // still sums to 1
  std::string error;
  EXPECT_FALSE(mix.Validate(&error));
}

TEST(WorkloadOptionsTest, RejectsDegenerateKnobs) {
  std::string error;
  WorkloadOptions options;
  options.clients = 0;
  EXPECT_FALSE(ValidateWorkloadOptions(options, &error));
  options = WorkloadOptions();
  options.ops_per_client = 0;
  EXPECT_FALSE(ValidateWorkloadOptions(options, &error));
  options = WorkloadOptions();
  options.zipf_skew = -0.5;
  EXPECT_FALSE(ValidateWorkloadOptions(options, &error));
  options = WorkloadOptions();
  options.write_batch_edits = 0;
  EXPECT_FALSE(ValidateWorkloadOptions(options, &error));
  options = WorkloadOptions();
  options.community_size = 0;
  EXPECT_FALSE(ValidateWorkloadOptions(options, &error));
}

// ---------------------------------------------------------------------------
// RunWorkload / SaturationSearch / differential
// ---------------------------------------------------------------------------

Graph SmallClustered() {
  Rng rng(21);
  return gen::CliqueOverlay(160, 70, 3, 12, 2.0, &rng);
}

ShardedServiceOptions ServiceOptions() {
  ShardedServiceOptions options;
  options.index.max_h = 2;
  return options;
}

TEST(RunWorkloadTest, OpCountsAreSeedDeterministic) {
  // Each client draws ops from its own seeded stream, so per-class counts
  // must not depend on thread interleaving.
  WorkloadOptions options;
  options.clients = 3;
  options.ops_per_client = 60;
  options.seed = 5;
  WorkloadReport a, b;
  {
    ShardedHCoreService service(SmallClustered(), ServiceOptions());
    a = RunWorkload(&service, options);
  }
  {
    ShardedHCoreService service(SmallClustered(), ServiceOptions());
    b = RunWorkload(&service, options);
  }
  EXPECT_EQ(a.total_ops, 180u);
  EXPECT_EQ(a.total_ops, b.total_ops);
  for (int i = 0; i < kNumWorkloadOps; ++i) {
    EXPECT_EQ(a.per_op[i].count, b.per_op[i].count)
        << WorkloadOpName(static_cast<WorkloadOp>(i));
  }
  EXPECT_GT(a.Of(WorkloadOp::kCore).count, 0u);
  EXPECT_GT(a.Of(WorkloadOp::kWrite).count, 0u);
  EXPECT_GT(a.qps, 0.0);
}

TEST(RunWorkloadTest, SingleClientRunIsFullyDeterministic) {
  WorkloadOptions options;
  options.clients = 1;
  options.ops_per_client = 80;
  options.seed = 9;
  options.collect_applied_batches = true;
  WorkloadReport a, b;
  {
    ShardedHCoreService service(SmallClustered(), ServiceOptions());
    a = RunWorkload(&service, options);
  }
  {
    ShardedHCoreService service(SmallClustered(), ServiceOptions());
    b = RunWorkload(&service, options);
  }
  ASSERT_EQ(a.applied_batches.size(), b.applied_batches.size());
  EXPECT_GT(a.applied_batches.size(), 0u);
  for (size_t i = 0; i < a.applied_batches.size(); ++i) {
    EXPECT_EQ(a.applied_batches[i].epoch, b.applied_batches[i].epoch);
    ASSERT_EQ(a.applied_batches[i].edits.size(),
              b.applied_batches[i].edits.size());
    for (size_t j = 0; j < a.applied_batches[i].edits.size(); ++j) {
      EXPECT_EQ(a.applied_batches[i].edits[j].u,
                b.applied_batches[i].edits[j].u);
      EXPECT_EQ(a.applied_batches[i].edits[j].v,
                b.applied_batches[i].edits[j].v);
      EXPECT_EQ(a.applied_batches[i].edits[j].insert,
                b.applied_batches[i].edits[j].insert);
    }
  }
}

TEST(RunWorkloadTest, CollectedBatchEpochsStrictlyIncrease) {
  WorkloadOptions options;
  options.clients = 4;
  options.ops_per_client = 40;
  options.mix.name = "churn";
  options.mix.core = 0.30;
  options.mix.spectrum = 0.0;
  options.mix.densest = 0.0;
  options.mix.component = 0.20;
  options.mix.community = 0.0;
  options.mix.write = 0.50;
  options.seed = 3;
  options.collect_applied_batches = true;
  ShardedHCoreService service(SmallClustered(), ServiceOptions());
  const WorkloadReport report = RunWorkload(&service, options);
  ASSERT_GT(report.applied_batches.size(), 1u);
  for (size_t i = 1; i < report.applied_batches.size(); ++i) {
    EXPECT_GT(report.applied_batches[i].epoch,
              report.applied_batches[i - 1].epoch);
  }
  // Every effective batch is on the record: the service's epoch counter
  // advanced exactly once per recorded batch.
  EXPECT_EQ(service.view()->service_epoch(), report.applied_batches.size());
}

TEST(RunWorkloadTest, MixedRunMatchesSingleIndexOracle) {
  // The differential: a concurrent mixed read/write run against the
  // service, then every sampled spectrum / component / community of its
  // final view must equal a bare HCoreIndex replay of the same batches.
  // This is the suite's TSan entry point for the driver.
  Graph initial = SmallClustered();
  ShardedServiceOptions service_options = ServiceOptions();
  ShardedHCoreService service(Graph(initial), service_options);
  WorkloadOptions options;
  options.clients = 4;
  options.ops_per_client = 50;
  options.seed = 17;
  options.collect_applied_batches = true;
  const WorkloadReport report = RunWorkload(&service, options);
  EXPECT_GT(report.Of(WorkloadOp::kWrite).count, 0u);
  EXPECT_EQ(CompareToSingleIndexOracle(std::move(initial),
                                       service_options.index, service, report),
            0u);
}

TEST(SaturationSearchTest, ReportsMonotoneClientStepsAndPeak) {
  ShardedHCoreService service(SmallClustered(), ServiceOptions());
  WorkloadOptions options;
  options.clients = 1;
  options.ops_per_client = 120;
  options.mix = WorkloadMix{"reads", 0.70, 0.20, 0.05, 0.04, 0.01, 0.0};
  const SaturationResult result = SaturationSearch(&service, options, 4);
  ASSERT_GE(result.steps.size(), 1u);
  EXPECT_EQ(result.steps.front().clients, 1);
  for (size_t i = 1; i < result.steps.size(); ++i) {
    EXPECT_EQ(result.steps[i].clients, result.steps[i - 1].clients * 2);
  }
  EXPECT_GT(result.peak_qps, 0.0);
  EXPECT_GE(result.saturation_clients, 1);
  EXPECT_LE(result.saturation_clients, 4);
  double best = 0.0;
  for (const SaturationStep& s : result.steps) best = std::max(best, s.qps);
  EXPECT_DOUBLE_EQ(result.peak_qps, best);
}

}  // namespace
}  // namespace hcore
