#include "util/rng.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "discovery/sketch_cache.h"
#include "table/column.h"

namespace autofeat {
namespace {

// Golden values from tools/hash_reference.py, an independent restatement in
// Python's standard library (CI regenerates and diffs the file).
#include "golden/hashes.inc"

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_difference = false;
  for (int i = 0; i < 50; ++i) {
    if (a.UniformInt(0, 1 << 30) != b.UniformInt(0, 1 << 30)) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(3, 5);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);  // All three values hit.
}

TEST(RngTest, UniformIndexCoversRange) {
  Rng rng(9);
  std::set<size_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.UniformIndex(4));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(RngTest, UniformRealInHalfOpenInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(2.0, 3.0);
    ASSERT_GE(v, 2.0);
    ASSERT_LT(v, 3.0);
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(15);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(RngTest, PermutationIsValid) {
  Rng rng(17);
  auto perm = rng.Permutation(50);
  ASSERT_EQ(perm.size(), 50u);
  std::vector<size_t> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < 50; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(RngTest, PermutationActuallyShuffles) {
  Rng rng(19);
  auto perm = rng.Permutation(100);
  size_t fixed_points = 0;
  for (size_t i = 0; i < perm.size(); ++i) fixed_points += (perm[i] == i);
  EXPECT_LT(fixed_points, 20u);
}

TEST(RngTest, ShuffleEmptyAndSingle) {
  Rng rng(21);
  std::vector<int> empty;
  rng.Shuffle(&empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{42};
  rng.Shuffle(&one);
  EXPECT_EQ(one, std::vector<int>{42});
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(23);
  Rng child = parent.Fork();
  // The child stream should not replicate the parent's next outputs.
  bool differs = false;
  for (int i = 0; i < 20; ++i) {
    if (parent.UniformInt(0, 1 << 30) != child.UniformInt(0, 1 << 30)) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, ForkIsDeterministic) {
  Rng a(29), b(29);
  Rng fa = a.Fork();
  Rng fb = b.Fork();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(fa.UniformInt(0, 1000), fb.UniformInt(0, 1000));
  }
}

TEST(GoldenHashTest, Fnv1a64AndSketchValueHashMatchReference) {
  for (const GoldenHash& g : kGoldenHashes) {
    const std::string_view key(g.key, g.size);
    EXPECT_EQ(Fnv1a64(key), g.fnv1a64) << key;
    EXPECT_EQ(SketchValueHash(key), g.sketch) << key;
  }
}

TEST(GoldenHashTest, Fnv1a64ChainsOverConcatenation) {
  EXPECT_EQ(Fnv1a64("ey", Fnv1a64("k")), Fnv1a64("key"));
  EXPECT_EQ(Fnv1a64("", Fnv1a64("key")), Fnv1a64("key"));
}

TEST(GoldenHashTest, ColumnProfileMatchesReference) {
  Column column = Column::Int64s(
      std::vector<int64_t>(std::begin(kGoldenColumn), std::end(kGoldenColumn)));
  ColumnSketch sketch = BuildColumnSketch(column, kGoldenSketchK);
  EXPECT_EQ(sketch.hashes,
            std::vector<uint64_t>(std::begin(kGoldenSketchHashes),
                                  std::end(kGoldenSketchHashes)));
  EXPECT_EQ(sketch.num_distinct, kGoldenColumnDistinct);
}

}  // namespace
}  // namespace autofeat
