// Property suite for the sweep statistics layer (src/stats): OnlineStats
// partition/order invariance against a single-stream oracle, the
// Greenwald-Khanna sketch's documented rank-error bound against an exact
// sorted oracle, and the batch-means confidence-interval edge-case contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "stats/confidence.hpp"
#include "stats/online_stats.hpp"
#include "stats/quantile_sketch.hpp"

namespace evps {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// --- OnlineStats -----------------------------------------------------------

TEST(OnlineStats, EmptyAndSingle) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);  // undefined below two samples; reported as 0
}

TEST(OnlineStats, RejectsNonFinite) {
  OnlineStats s;
  s.add(1.0);
  s.add(kNaN);
  s.add(kInf);
  s.add(-kInf);
  s.add(3.0);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_EQ(s.rejected(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(OnlineStats, SumCountsOnlyAcceptedSamples) {
  OnlineStats s;
  EXPECT_EQ(s.sum(), 0.0);
  for (const double x : {1.0, 2.0, kNaN, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  OnlineStats other;
  other.add(10.0);
  s.combine(other);
  EXPECT_DOUBLE_EQ(s.sum(), 20.0);
}

TEST(OnlineStats, ResetClearsEverything) {
  OnlineStats s;
  s.add(5.0);
  s.add(kInf);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.rejected(), 0u);
  EXPECT_EQ(s.sum(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  s.add(-2.0);
  EXPECT_DOUBLE_EQ(s.min(), -2.0);  // min/max restart from the new sample
  EXPECT_DOUBLE_EQ(s.max(), -2.0);
}

TEST(OnlineStats, VarianceSurvivesLargeOffset) {
  // The sum-of-squares formula cancels catastrophically here (x^2 ~ 1e18
  // exceeds the 2^53 exactly-representable range); Welford does not.
  OnlineStats s;
  for (const double x : {1e9 + 1, 1e9 + 2, 1e9 + 3}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 1e9 + 2);
  EXPECT_DOUBLE_EQ(s.variance(), 1.0);
}

TEST(OnlineStats, CombinePropagatesRejected) {
  OnlineStats a, b;
  a.add(kNaN);
  b.add(kInf);
  b.add(1.0);
  a.combine(b);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.rejected(), 2u);
}

/// 1000+ random partitions of a random stream, each side order-shuffled at
/// the partition level, must reproduce the single-stream oracle: exactly for
/// count/min/max/rejected, to tight relative tolerance for mean/variance.
TEST(OnlineStats, CombineIsPartitionInvariant) {
  Rng rng{20260809};
  for (int round = 0; round < 1000; ++round) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 199));
    std::vector<double> xs(n);
    for (double& x : xs) x = rng.uniform(-1e3, 1e3);
    // A few non-finite pollutants in some rounds.
    const std::size_t pollute = static_cast<std::size_t>(rng.uniform_int(0, 2));
    for (std::size_t p = 0; p < pollute && p < n; ++p) xs[p] = (p % 2) != 0u ? kNaN : kInf;

    OnlineStats oracle;
    for (const double x : xs) oracle.add(x);

    // Random partition into up to 5 chunks (possibly empty), combined in a
    // random order.
    const std::size_t chunks = 1 + static_cast<std::size_t>(rng.uniform_int(0, 4));
    std::vector<OnlineStats> parts(chunks);
    for (const double x : xs) {
      parts[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(chunks) - 1))]
          .add(x);
    }
    std::vector<std::size_t> order(chunks);
    for (std::size_t i = 0; i < chunks; ++i) order[i] = i;
    for (std::size_t i = chunks; i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    }
    OnlineStats merged;
    for (const std::size_t i : order) merged.combine(parts[i]);

    EXPECT_EQ(merged.count(), oracle.count());
    EXPECT_EQ(merged.rejected(), oracle.rejected());
    EXPECT_EQ(merged.min(), oracle.min());
    EXPECT_EQ(merged.max(), oracle.max());
    EXPECT_NEAR(merged.mean(), oracle.mean(), 1e-9 * (1.0 + std::fabs(oracle.mean())));
    EXPECT_NEAR(merged.variance(), oracle.variance(), 1e-6 * (1.0 + oracle.variance()));
  }
}

TEST(OnlineStats, CombineWithEmptyAndSingleSampleSides) {
  OnlineStats filled;
  for (int i = 1; i <= 10; ++i) filled.add(i);
  const double mean = filled.mean();
  const double var = filled.variance();

  OnlineStats empty;
  filled.combine(empty);  // no-op
  EXPECT_EQ(filled.count(), 10u);
  EXPECT_DOUBLE_EQ(filled.mean(), mean);
  EXPECT_DOUBLE_EQ(filled.variance(), var);

  OnlineStats other;
  other.combine(filled);  // empty target takes the source verbatim
  EXPECT_EQ(other.count(), 10u);
  EXPECT_DOUBLE_EQ(other.mean(), mean);
  EXPECT_DOUBLE_EQ(other.variance(), var);

  OnlineStats single;
  single.add(100.0);
  other.combine(single);
  OnlineStats oracle;
  for (int i = 1; i <= 10; ++i) oracle.add(i);
  oracle.add(100.0);
  EXPECT_EQ(other.count(), oracle.count());
  EXPECT_NEAR(other.mean(), oracle.mean(), 1e-12);
  EXPECT_NEAR(other.variance(), oracle.variance(), 1e-9);
}

// --- QuantileSketch --------------------------------------------------------

/// The returned value must be a stream value whose rank range in the sorted
/// oracle intersects [r - e, r + e] with r = max(1, ceil(q*n)) and
/// e = error_budget() + 1 (the documented ceiling slack).
void expect_within_rank_bound(const std::vector<double>& sorted, const QuantileSketch& sk,
                              double q) {
  ASSERT_EQ(sk.count(), sorted.size());
  const double v = sk.quantile(q);
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(), v);
  const auto hi = std::upper_bound(sorted.begin(), sorted.end(), v);
  ASSERT_NE(lo, hi) << "sketch returned a value not in the stream: " << v;
  const double rank_lo = static_cast<double>(lo - sorted.begin()) + 1.0;
  const double rank_hi = static_cast<double>(hi - sorted.begin());
  const double r = std::max(1.0, std::ceil(q * static_cast<double>(sorted.size())));
  const double e = sk.error_budget() + 1.0;
  EXPECT_LE(rank_lo, r + e) << "q=" << q << " v=" << v;
  EXPECT_GE(rank_hi, r - e) << "q=" << q << " v=" << v;
}

std::vector<double> make_stream(int shape, std::size_t n, Rng& rng) {
  std::vector<double> xs(n);
  switch (shape) {
    case 0:  // uniform
      for (double& x : xs) x = rng.uniform(0.0, 1.0);
      break;
    case 1:  // heavy right tail
      for (double& x : xs) x = std::exp(rng.uniform(0.0, 10.0));
      break;
    case 2:  // constant with duplicates
      for (double& x : xs) x = rng.bernoulli(0.5) ? 1.0 : 2.0;
      break;
    case 3:  // sorted ascending
      for (std::size_t i = 0; i < n; ++i) xs[i] = static_cast<double>(i);
      break;
    default:  // sorted descending
      for (std::size_t i = 0; i < n; ++i) xs[i] = static_cast<double>(n - i);
      break;
  }
  return xs;
}

TEST(QuantileSketch, RankErrorWithinDocumentedBound) {
  Rng rng{7};
  const double quantiles[] = {0.01, 0.25, 0.5, 0.9, 0.99};
  for (const std::size_t n : {std::size_t{1}, std::size_t{10}, std::size_t{100},
                              std::size_t{1000}, std::size_t{5000}}) {
    for (int shape = 0; shape < 5; ++shape) {
      std::vector<double> xs = make_stream(shape, n, rng);
      QuantileSketch sk{0.01};
      for (const double x : xs) sk.add(x);
      std::sort(xs.begin(), xs.end());
      EXPECT_DOUBLE_EQ(sk.min(), xs.front());
      EXPECT_DOUBLE_EQ(sk.max(), xs.back());
      for (const double q : quantiles) expect_within_rank_bound(xs, sk, q);
    }
  }
}

TEST(QuantileSketch, CombineAddsBudgets) {
  Rng rng{11};
  QuantileSketch a{0.01};
  QuantileSketch b{0.01};
  std::vector<double> all;
  for (int i = 0; i < 3000; ++i) {
    const double x = rng.uniform(0.0, 100.0);
    (i % 2 == 0 ? a : b).add(x);
    all.push_back(x);
  }
  const double budget_before = a.error_budget() + b.error_budget();
  a.combine(b);
  EXPECT_EQ(a.count(), all.size());
  EXPECT_NEAR(a.error_budget(), budget_before, 1e-9);
  std::sort(all.begin(), all.end());
  for (const double q : {0.01, 0.25, 0.5, 0.9, 0.99}) expect_within_rank_bound(all, a, q);
}

TEST(QuantileSketch, CombineRequiresEqualEpsAndHandlesEmpty) {
  QuantileSketch a{0.01};
  QuantileSketch b{0.02};
  EXPECT_THROW(a.combine(b), std::invalid_argument);

  QuantileSketch c{0.01};
  c.add(1.0);
  QuantileSketch empty{0.01};
  c.combine(empty);
  EXPECT_EQ(c.count(), 1u);
  empty.combine(c);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 1.0);
}

TEST(QuantileSketch, FixedMemoryBudget) {
  const double eps = 0.005;
  QuantileSketch sk{eps};
  Rng rng{3};
  const std::size_t n = 50000;
  for (std::size_t i = 0; i < n; ++i) sk.add(rng.uniform(0.0, 1.0));
  // O((1/eps) * log(eps * n)) with a generous constant; far below the stream.
  const double bound = (3.0 / eps) * std::log2(2.0 * eps * static_cast<double>(n)) + 32.0;
  EXPECT_LT(static_cast<double>(sk.tuple_count()), bound);
  EXPECT_LT(sk.tuple_count(), n / 10);
}

TEST(QuantileSketch, RejectsNonFiniteAndClampsQ) {
  QuantileSketch sk{0.01};
  sk.add(kNaN);
  sk.add(kInf);
  EXPECT_EQ(sk.count(), 0u);
  EXPECT_EQ(sk.rejected(), 2u);
  EXPECT_EQ(sk.quantile(0.5), 0.0);  // empty sketch
  sk.add(5.0);
  EXPECT_DOUBLE_EQ(sk.quantile(-1.0), 5.0);
  EXPECT_DOUBLE_EQ(sk.quantile(2.0), 5.0);
  EXPECT_THROW(QuantileSketch{0.0}, std::invalid_argument);
  EXPECT_THROW(QuantileSketch{0.5}, std::invalid_argument);
}

// --- batch-means confidence intervals --------------------------------------

TEST(BatchMeansCi, EdgeCaseContract) {
  // Empty: undefined, mean 0.
  const ConfidenceInterval empty = batch_means_ci({});
  EXPECT_FALSE(empty.defined);
  EXPECT_EQ(empty.mean, 0.0);
  EXPECT_EQ(empty.samples, 0u);

  // Single sample: mean set, CI suppressed.
  const double one[] = {42.0};
  const ConfidenceInterval single = batch_means_ci(one);
  EXPECT_FALSE(single.defined);
  EXPECT_DOUBLE_EQ(single.mean, 42.0);
  EXPECT_EQ(single.samples, 1u);

  // Non-finite samples are rejected, not poisoning.
  const double mixed[] = {1.0, kNaN, 3.0, kInf, 2.0};
  const ConfidenceInterval guarded = batch_means_ci(mixed);
  EXPECT_TRUE(guarded.defined);
  EXPECT_EQ(guarded.samples, 3u);
  EXPECT_EQ(guarded.rejected, 2u);
  EXPECT_DOUBLE_EQ(guarded.mean, 2.0);
  EXPECT_TRUE(std::isfinite(guarded.half_width));

  // All-NaN series degrades to the empty contract.
  const double junk[] = {kNaN, kInf};
  const ConfidenceInterval none = batch_means_ci(junk);
  EXPECT_FALSE(none.defined);
  EXPECT_EQ(none.samples, 0u);
  EXPECT_EQ(none.rejected, 2u);

  // Constant series: defined with zero width.
  const std::vector<double> flat(50, 7.0);
  const ConfidenceInterval constant = batch_means_ci(flat);
  EXPECT_TRUE(constant.defined);
  EXPECT_DOUBLE_EQ(constant.mean, 7.0);
  EXPECT_DOUBLE_EQ(constant.half_width, 0.0);
  EXPECT_EQ(constant.batches, 20u);
}

TEST(BatchMeansCi, BatchCountClampingAndGrandMean) {
  std::vector<double> xs(7);
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = static_cast<double>(i);
  // Requests below 2 and above n are clamped into [2, n].
  EXPECT_EQ(batch_means_ci(xs, 1).batches, 2u);
  EXPECT_EQ(batch_means_ci(xs, 100).batches, 7u);
  // Near-equal contiguous batches keep the grand mean exact for every B.
  for (std::size_t b = 2; b <= 7; ++b) {
    EXPECT_DOUBLE_EQ(batch_means_ci(xs, b).mean, 3.0) << "B=" << b;
  }
}

TEST(BatchMeansCi, CoverageIsRoughly95Percent) {
  // Uniform(0, 1) has mean 0.5; over many deterministic experiments the CI
  // must cover it about 95% of the time (wide sanity band, not a sharp
  // statistical test — batching only loses degrees of freedom).
  Rng rng{123};
  int covered = 0;
  const int experiments = 300;
  for (int e = 0; e < experiments; ++e) {
    std::vector<double> xs(60);
    for (double& x : xs) x = rng.uniform(0.0, 1.0);
    const ConfidenceInterval ci = batch_means_ci(xs);
    ASSERT_TRUE(ci.defined);
    if (std::fabs(ci.mean - 0.5) <= ci.half_width) ++covered;
  }
  EXPECT_GE(covered, static_cast<int>(experiments * 0.85));
  EXPECT_LE(covered, experiments);
}

TEST(StudentT, TableIsMonotonicAndConservative) {
  EXPECT_NEAR(student_t_975(1), 12.706, 1e-9);
  EXPECT_NEAR(student_t_975(19), 2.093, 1e-9);
  for (std::size_t df = 1; df < 200; ++df) {
    EXPECT_GE(student_t_975(df), student_t_975(df + 1)) << "df=" << df;
    EXPECT_GE(student_t_975(df), 1.96);
  }
  EXPECT_DOUBLE_EQ(student_t_975(100000), 1.96);
}

}  // namespace
}  // namespace evps
