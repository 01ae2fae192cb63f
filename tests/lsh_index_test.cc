// MinHash-LSH candidate index: signature determinism, banding recall on
// high-Jaccard pairs, the small-column containment rescue, type-group
// separation, thread-count independence, and the BuildDrgByDiscovery
// candidate_mode wiring (LSH subset equality + the all-pairs fallback when
// the threshold is reachable on name evidence alone).

#include "discovery/lsh_index.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "datagen/scale_lake.h"
#include "discovery/data_lake.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace autofeat {
namespace {

ColumnSketch MakeSketch(std::initializer_list<std::string> values) {
  return BuildColumnSketch(Column::Strings(values), /*max_sample=*/4096);
}

Table MakeKeyTable(const std::string& table_name,
                   const std::string& column_name, int64_t lo, int64_t hi) {
  Table table(table_name);
  Column key(DataType::kInt64);
  for (int64_t v = lo; v < hi; ++v) key.AppendInt64(v);
  EXPECT_TRUE(table.AddColumn(column_name, std::move(key)).ok());
  return table;
}

std::set<std::string> EdgeSet(const DatasetRelationGraph& drg) {
  std::set<std::string> edges;
  for (size_t a = 0; a < drg.num_nodes(); ++a) {
    for (size_t b : drg.Neighbors(a)) {
      if (b <= a) continue;
      for (const JoinStep& step : drg.EdgesBetween(a, b)) {
        std::ostringstream line;
        line.precision(17);
        line << drg.NodeName(a) << "." << step.from_column << ">"
             << drg.NodeName(b) << "." << step.to_column << "="
             << step.weight;
        edges.insert(line.str());
      }
    }
  }
  return edges;
}

TEST(MinHashSignatureTest, WidthAndDeterminism) {
  ColumnSketch sketch = MakeSketch({"a", "b", "c", "d"});
  MinHashSignature first = ComputeMinHashSignature(sketch, 64);
  MinHashSignature second = ComputeMinHashSignature(sketch, 64);
  ASSERT_EQ(first.mins.size(), 64u);
  EXPECT_EQ(first.mins, second.mins);
}

TEST(MinHashSignatureTest, PureFunctionOfValueSet) {
  // Same value set built in a different insertion order: the signature is a
  // min over per-value hashes, so iteration order cannot leak through.
  ColumnSketch forward = MakeSketch({"x1", "x2", "x3", "x4", "x5"});
  ColumnSketch backward = MakeSketch({"x5", "x4", "x3", "x2", "x1"});
  EXPECT_EQ(ComputeMinHashSignature(forward, 32).mins,
            ComputeMinHashSignature(backward, 32).mins);
}

TEST(MinHashSignatureTest, EmptySketchAndZeroWidth) {
  EXPECT_TRUE(ComputeMinHashSignature(ColumnSketch{}, 64).empty());
  EXPECT_TRUE(ComputeMinHashSignature(MakeSketch({"a"}), 0).empty());
}

TEST(MinHashSignatureTest, IdenticalSetsShareEveryBand) {
  // Jaccard 1 pairs must collide in every band — the bench lake's
  // within-pod recall guarantee.
  ColumnSketch a = MakeSketch({"10", "11", "12", "13", "14", "15"});
  ColumnSketch b = MakeSketch({"15", "14", "13", "12", "11", "10"});
  EXPECT_EQ(ComputeMinHashSignature(a, 64).mins,
            ComputeMinHashSignature(b, 64).mins);
}

TEST(LshCandidateIndexTest, SharedKeyDomainBecomesCandidate) {
  DataLake lake;
  ASSERT_TRUE(lake.AddTable(MakeKeyTable("left", "id", 0, 100)).ok());
  ASSERT_TRUE(lake.AddTable(MakeKeyTable("right", "id", 0, 100)).ok());
  LakeSketchCache cache = LakeSketchCache::Build(lake, 4096);
  LshCandidateIndex index =
      LshCandidateIndex::Build(lake, cache, LshOptions{});
  ASSERT_EQ(index.candidate_table_pairs().size(), 1u);
  EXPECT_EQ(index.candidate_table_pairs()[0],
            (std::pair<size_t, size_t>{0, 1}));
}

TEST(LshCandidateIndexTest, DisjointKeyDomainsArePruned) {
  DataLake lake;
  ASSERT_TRUE(lake.AddTable(MakeKeyTable("left", "id_a", 0, 100)).ok());
  ASSERT_TRUE(lake.AddTable(MakeKeyTable("right", "id_b", 1000, 1100)).ok());
  LakeSketchCache cache = LakeSketchCache::Build(lake, 4096);
  LshCandidateIndex index =
      LshCandidateIndex::Build(lake, cache, LshOptions{});
  EXPECT_TRUE(index.candidate_table_pairs().empty());
}

TEST(LshCandidateIndexTest, SmallColumnRescueCatchesContainment) {
  // 5 values contained in 40: Jaccard 0.125, low enough that 32x2 banding
  // misses with good probability — the small-column rescue must guarantee
  // the candidate instead.
  DataLake lake;
  ASSERT_TRUE(lake.AddTable(MakeKeyTable("fk_side", "ref", 10, 15)).ok());
  ASSERT_TRUE(lake.AddTable(MakeKeyTable("pk_side", "ref", 0, 40)).ok());
  LakeSketchCache cache = LakeSketchCache::Build(lake, 4096);
  LshOptions options;
  ASSERT_LE(40u, options.small_column_rescue);
  LshCandidateIndex index = LshCandidateIndex::Build(lake, cache, options);
  ASSERT_EQ(index.candidate_table_pairs().size(), 1u);

  // With the rescue disabled the pair may or may not band-collide; with
  // rescue but no overlap there must be no candidate.
  DataLake disjoint;
  ASSERT_TRUE(disjoint.AddTable(MakeKeyTable("fk_side", "ref", 50, 55)).ok());
  ASSERT_TRUE(disjoint.AddTable(MakeKeyTable("pk_side", "ref", 0, 40)).ok());
  LakeSketchCache disjoint_cache = LakeSketchCache::Build(disjoint, 4096);
  EXPECT_TRUE(LshCandidateIndex::Build(disjoint, disjoint_cache, options)
                  .candidate_table_pairs()
                  .empty());
}

TEST(LshCandidateIndexTest, TypeGroupsNeverShareBuckets) {
  // An int64 column and a double column with byte-identical value strings
  // must not collide: the exact matcher would never score that pair.
  DataLake lake;
  Table ints("ints");
  Column ic(DataType::kInt64);
  for (int64_t v = 0; v < 32; ++v) ic.AppendInt64(v);
  ASSERT_TRUE(ints.AddColumn("c", std::move(ic)).ok());
  ASSERT_TRUE(lake.AddTable(std::move(ints)).ok());
  Table doubles("doubles");
  Column dc(DataType::kDouble);
  for (int64_t v = 0; v < 32; ++v) dc.AppendDouble(static_cast<double>(v));
  ASSERT_TRUE(doubles.AddColumn("c", std::move(dc)).ok());
  ASSERT_TRUE(lake.AddTable(std::move(doubles)).ok());
  LakeSketchCache cache = LakeSketchCache::Build(lake, 4096);
  // Kept in a local: a range-for over a temporary's member would dangle.
  const LshCandidateIndex index =
      LshCandidateIndex::Build(lake, cache, LshOptions{});
  for (const auto& [i, j] : index.candidate_table_pairs()) {
    // Only a same-group collision could pair these two tables.
    EXPECT_NE(std::make_pair(i, j), (std::pair<size_t, size_t>{0, 1}));
  }
}

TEST(LshCandidateIndexTest, ThreadCountIndependent) {
  datagen::ScaleLakeSpec spec;
  spec.num_tables = 20;
  DataLake lake = datagen::BuildScaleLake(spec);
  LakeSketchCache cache = LakeSketchCache::Build(lake, 4096);
  LshCandidateIndex sequential =
      LshCandidateIndex::Build(lake, cache, LshOptions{});
  ThreadPool pool(4);
  LshCandidateIndex parallel =
      LshCandidateIndex::Build(lake, cache, LshOptions{}, &pool);
  EXPECT_EQ(sequential.candidate_table_pairs(),
            parallel.candidate_table_pairs());
  EXPECT_EQ(sequential.signature_bytes(), parallel.signature_bytes());
  EXPECT_EQ(sequential.num_bucket_collisions(),
            parallel.num_bucket_collisions());
}

TEST(LshCandidateIndexTest, BuildEqualsPairwiseProfileCollisions) {
  // One banding path: the cold index files the same profiles the serving
  // layer intersects pairwise, so its candidates must be exactly the table
  // pairs LshTablesCollide accepts, with and without the small-column
  // rescue.
  datagen::ScaleLakeSpec spec;
  spec.num_tables = 20;
  spec.rows = 48;  // key and feature columns under the default rescue
  spec.seed = 7;
  DataLake lake = datagen::BuildScaleLake(spec);
  // A small subset of pod 0's key domain (asymmetric containment) and a
  // superset of pod 1's that is too wide to be rescued.
  ASSERT_TRUE(lake.AddTable(MakeKeyTable("subset", "key_p0", 10, 16)).ok());
  ASSERT_TRUE(lake.AddTable(MakeKeyTable("superset", "key_p1", 48, 248)).ok());
  LakeSketchCache cache = LakeSketchCache::Build(lake, 4096);

  std::vector<LshOptions> variants(2);
  variants[1].small_column_rescue = 0;
  for (size_t v = 0; v < variants.size(); ++v) {
    const LshOptions& options = variants[v];
    std::vector<std::vector<ColumnLshProfile>> profiles;
    for (size_t t = 0; t < lake.num_tables(); ++t) {
      profiles.push_back(ComputeTableLshProfiles(
          lake.tables()[t], *cache.GetOrBuild(t), options));
    }
    std::vector<std::pair<size_t, size_t>> want;
    for (size_t i = 0; i < profiles.size(); ++i) {
      for (size_t j = i + 1; j < profiles.size(); ++j) {
        if (LshTablesCollide(profiles[i], profiles[j])) {
          want.emplace_back(i, j);
        }
      }
    }
    EXPECT_FALSE(want.empty()) << "variant " << v;
    EXPECT_EQ(LshCandidateIndex::Build(lake, cache, options)
                  .candidate_table_pairs(),
              want)
        << "variant " << v;
  }
}

TEST(LshCandidateIndexTest, RecordsCountersAndByteGauges) {
  datagen::ScaleLakeSpec spec;
  spec.num_tables = 10;
  DataLake lake = datagen::BuildScaleLake(spec);
  LakeSketchCache cache = LakeSketchCache::Build(lake, 4096);
  obs::MetricsRegistry metrics;
  LshCandidateIndex index =
      LshCandidateIndex::Build(lake, cache, LshOptions{}, nullptr, &metrics);
  EXPECT_EQ(metrics.GetCounter("lsh.bands")->value(), 32u);
  EXPECT_EQ(metrics.GetCounter("lsh.signature_bytes")->value(),
            index.signature_bytes());
  EXPECT_GT(metrics.GetCounter("lsh.columns_indexed")->value(), 0u);
  EXPECT_EQ(metrics.GetGauge("lsh_index.bytes")->value(),
            static_cast<int64_t>(index.ApproxBytes()));
  EXPECT_EQ(metrics.GetGauge("lsh_index.bytes_peak")->value(),
            static_cast<int64_t>(index.ApproxBytes()));
  EXPECT_GT(index.ApproxBytes(), index.signature_bytes());
}

TEST(DiscoveryCandidateModeTest, LshFindsExactlyTheAllPairsEdges) {
  // Pod lake: within-pod containment 1 — every true edge's pair is a
  // guaranteed band collision, so the two modes must agree edge-for-edge.
  datagen::ScaleLakeSpec spec;
  spec.num_tables = 15;
  DataLake lake = datagen::BuildScaleLake(spec);
  MatchOptions exact;
  auto all_pairs = BuildDrgByDiscovery(lake, exact);
  ASSERT_TRUE(all_pairs.ok());
  MatchOptions lsh;
  lsh.candidate_mode = CandidateMode::kLsh;
  auto filtered = BuildDrgByDiscovery(lake, lsh);
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(all_pairs->num_edges(), datagen::ExpectedScaleLakeEdges(spec));
  EXPECT_EQ(EdgeSet(*all_pairs), EdgeSet(*filtered));
}

TEST(DiscoveryCandidateModeTest, CandidateCountersAccountForPruning) {
  datagen::ScaleLakeSpec spec;
  spec.num_tables = 15;  // 105 table pairs, ~25 within-pod candidates
  DataLake lake = datagen::BuildScaleLake(spec);
  MatchOptions options;
  options.candidate_mode = CandidateMode::kLsh;
  obs::MetricsRegistry metrics;
  ASSERT_TRUE(BuildDrgByDiscovery(lake, options, nullptr, &metrics).ok());
  uint64_t candidates = metrics.GetCounter("drg.candidate_pairs")->value();
  uint64_t pruned = metrics.GetCounter("drg.pairs_pruned")->value();
  uint64_t scored = metrics.GetCounter("drg.pairs_scored")->value();
  EXPECT_EQ(candidates + pruned, 15u * 14u / 2u);
  EXPECT_EQ(scored, candidates);
  EXPECT_LT(candidates, 15u * 14u / 2u);
}

TEST(DiscoveryCandidateModeTest, AllPairsModeReportsZeroPruned) {
  datagen::ScaleLakeSpec spec;
  spec.num_tables = 10;
  DataLake lake = datagen::BuildScaleLake(spec);
  obs::MetricsRegistry metrics;
  ASSERT_TRUE(BuildDrgByDiscovery(lake, MatchOptions{}, nullptr, &metrics)
                  .ok());
  EXPECT_EQ(metrics.GetCounter("drg.candidate_pairs")->value(), 45u);
  EXPECT_EQ(metrics.GetCounter("drg.pairs_pruned")->value(), 0u);
}

TEST(DiscoveryCandidateModeTest, NameReachableThresholdFallsBackToAllPairs) {
  // threshold <= name_weight: an edge could exist with zero value overlap,
  // which LSH cannot witness — discovery must fall back to the exhaustive
  // sweep rather than lose those edges.
  datagen::ScaleLakeSpec spec;
  spec.num_tables = 10;
  DataLake lake = datagen::BuildScaleLake(spec);
  MatchOptions options;
  options.candidate_mode = CandidateMode::kLsh;
  options.threshold = 0.45;  // < name_weight 0.5
  obs::MetricsRegistry metrics;
  ASSERT_TRUE(BuildDrgByDiscovery(lake, options, nullptr, &metrics).ok());
  EXPECT_EQ(metrics.GetCounter("drg.candidate_pairs")->value(), 45u);
  EXPECT_EQ(metrics.GetCounter("drg.pairs_pruned")->value(), 0u);
}

}  // namespace
}  // namespace autofeat
