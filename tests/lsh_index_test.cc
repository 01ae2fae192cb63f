// MinHash-LSH candidate generation: signature determinism, banding recall
// on high-Jaccard pairs, the small-column containment rescue, type-group
// separation, the one-pass pair finder against key-set intersection and
// BucketKeyProbe, thread-count independence, and the BuildDrgByDiscovery
// candidate_mode wiring (LSH subset equality + the all-pairs fallback when
// the threshold is reachable on name evidence alone).

#include "discovery/lsh_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <sstream>
#include <string>

#include "datagen/scale_lake.h"
#include "discovery/data_lake.h"
#include "obs/metrics.h"
#include "obs/report.h"
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

// Every table's key set over the sketches in `cache`.
std::vector<std::vector<uint64_t>> LakeBucketKeys(const DataLake& lake,
                                                  LakeSketchCache& cache,
                                                  const LshOptions& options) {
  std::vector<std::vector<uint64_t>> keys;
  for (const Table& table : lake.tables()) {
    keys.push_back(TableBucketKeys(table, *cache.GetOrBuild(table), options));
  }
  return keys;
}

// The LSH candidate pairs of `lake` under `options`.
std::vector<std::pair<size_t, size_t>> Candidates(
    const DataLake& lake, const LshOptions& options = {}) {
  LakeSketchCache cache = LakeSketchCache::Build(lake, 4096);
  return LshCandidatePairs(LakeBucketKeys(lake, cache, options));
}

TEST(LshCandidatePairsTest, SharedKeyDomainBecomesCandidate) {
  DataLake lake;
  ASSERT_TRUE(lake.AddTable(MakeKeyTable("left", "id", 0, 100)).ok());
  ASSERT_TRUE(lake.AddTable(MakeKeyTable("right", "id", 0, 100)).ok());
  const std::vector<std::pair<size_t, size_t>> want = {{0, 1}};
  EXPECT_EQ(Candidates(lake), want);
}

TEST(LshCandidatePairsTest, DisjointKeyDomainsArePruned) {
  DataLake lake;
  ASSERT_TRUE(lake.AddTable(MakeKeyTable("left", "id_a", 0, 100)).ok());
  ASSERT_TRUE(lake.AddTable(MakeKeyTable("right", "id_b", 1000, 1100)).ok());
  EXPECT_TRUE(Candidates(lake).empty());
}

TEST(LshCandidatePairsTest, SmallColumnRescueCatchesContainment) {
  // 5 values contained in 40: Jaccard 0.125, low enough that 32x2 banding
  // misses with good probability — the small-column rescue must guarantee
  // the candidate instead.
  DataLake lake;
  ASSERT_TRUE(lake.AddTable(MakeKeyTable("fk_side", "ref", 10, 15)).ok());
  ASSERT_TRUE(lake.AddTable(MakeKeyTable("pk_side", "ref", 0, 40)).ok());
  LshOptions options;
  ASSERT_LE(40u, options.small_column_rescue);
  EXPECT_EQ(Candidates(lake, options).size(), 1u);

  // With the rescue disabled the pair may or may not band-collide; with
  // rescue but no overlap there must be no candidate.
  DataLake disjoint;
  ASSERT_TRUE(disjoint.AddTable(MakeKeyTable("fk_side", "ref", 50, 55)).ok());
  ASSERT_TRUE(disjoint.AddTable(MakeKeyTable("pk_side", "ref", 0, 40)).ok());
  EXPECT_TRUE(Candidates(disjoint, options).empty());
}

TEST(LshCandidatePairsTest, TypeGroupsNeverShareBuckets) {
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
  EXPECT_TRUE(Candidates(lake).empty());
}

TEST(LshCandidatePairsTest, EmptyColumnsAddNoKeys) {
  Table table("empty");
  ASSERT_TRUE(table.AddColumn("c", Column(DataType::kInt64)).ok());
  const std::vector<ColumnSketch> sketches(1);
  EXPECT_TRUE(TableBucketKeys(table, sketches, LshOptions{}).empty());
}

TEST(LshCandidatePairsTest, PairsEveryRunOfEqualKeys) {
  // Key 1 is shared by tables 0 and 3, key 2 by 0 and 1, key 4 by 2 and 3,
  // key 7 by 0, 1 and 3; key 9 is table 2's alone.
  const std::vector<std::vector<uint64_t>> keys = {
      {1, 2, 7}, {2, 7}, {4, 9}, {1, 4, 7}, {}};
  obs::MetricsRegistry metrics;
  const std::vector<std::pair<size_t, size_t>> want = {
      {0, 1}, {0, 3}, {1, 3}, {2, 3}};
  EXPECT_EQ(LshCandidatePairs(keys, &metrics), want);
  // One pair each for keys 1, 2 and 4, three for key 7.
  EXPECT_EQ(metrics.GetCounter("lsh.bucket_collisions")->value(), 6u);
  EXPECT_TRUE(LshCandidatePairs({}).empty());
  EXPECT_TRUE(LshCandidatePairs({{5}, {6}}).empty());
}

TEST(LshCandidatePairsTest, ThreadCountIndependent) {
  datagen::ScaleLakeSpec spec;
  spec.num_tables = 20;
  DataLake lake = datagen::BuildScaleLake(spec);
  MatchOptions options;
  options.candidate_mode = CandidateMode::kLsh;
  LakeSketchCache cache = LakeSketchCache::Build(lake, 4096);
  obs::MetricsRegistry seq_metrics, par_metrics;
  std::vector<std::vector<uint64_t>> seq_keys, par_keys;
  const std::vector<std::pair<size_t, size_t>> sequential =
      CandidateTablePairs(lake, cache, options, nullptr, &seq_metrics,
                          &seq_keys);
  ThreadPool pool(4);
  const std::vector<std::pair<size_t, size_t>> parallel =
      CandidateTablePairs(lake, cache, options, &pool, &par_metrics,
                          &par_keys);
  EXPECT_FALSE(sequential.empty());
  EXPECT_EQ(sequential, parallel);
  EXPECT_EQ(seq_keys, par_keys);
  EXPECT_EQ(obs::DeterministicDigest(seq_metrics, nullptr),
            obs::DeterministicDigest(par_metrics, nullptr));
}

// Whether two sorted key sets intersect, by plain merge: the definition
// both the pair pass and the probe's filter must agree with.
bool KeySetsIntersect(const std::vector<uint64_t>& a,
                      const std::vector<uint64_t>& b) {
  std::vector<uint64_t> common;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(common));
  return !common.empty();
}

TEST(LshCandidatePairsTest, PairsAndProbeEqualKeySetIntersections) {
  // One candidate structure: the whole-lake pass must pair exactly the
  // tables whose key sets intersect, with and without the small-column
  // rescue, CandidateTablePairs must hand back the key sets it paired, and
  // BucketKeyProbe must find exactly the same collisions.
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
    MatchOptions options;
    options.candidate_mode = CandidateMode::kLsh;
    options.lsh = variants[v];
    std::vector<std::vector<uint64_t>> keys;
    const std::vector<std::pair<size_t, size_t>> got =
        CandidateTablePairs(lake, cache, options, nullptr, nullptr, &keys);
    ASSERT_EQ(keys, LakeBucketKeys(lake, cache, options.lsh));
    std::vector<std::pair<size_t, size_t>> want;
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE(std::is_sorted(keys[i].begin(), keys[i].end()));
      ASSERT_EQ(std::adjacent_find(keys[i].begin(), keys[i].end()),
                keys[i].end());
      const BucketKeyProbe probe(keys[i]);
      for (size_t j = 0; j < keys.size(); ++j) {
        if (j == i) continue;
        const bool collide = KeySetsIntersect(keys[i], keys[j]);
        EXPECT_EQ(probe.Collides(keys[j]), collide)
            << "variant " << v << " pair " << i << "," << j;
        if (collide && i < j) want.emplace_back(i, j);
      }
    }
    EXPECT_FALSE(want.empty()) << "variant " << v;
    EXPECT_EQ(got, want) << "variant " << v;
  }
}

TEST(LshCandidatePairsTest, KeySetsCollideThroughDifferentColumns) {
  // The shared bucket comes from column 0 of one table and column 1 of the
  // other, under different names: the per-table union must still see it.
  DataLake lake;
  Table left("left");
  Column ids(DataType::kInt64), noise(DataType::kDouble);
  for (int64_t v = 0; v < 40; ++v) {
    ids.AppendInt64(v);
    noise.AppendDouble(0.5 * static_cast<double>(v));
  }
  ASSERT_TRUE(left.AddColumn("id", std::move(ids)).ok());
  ASSERT_TRUE(left.AddColumn("weight", std::move(noise)).ok());
  Table right("right");
  Column labels = Column::Strings({"a", "b", "c"});
  Column refs(DataType::kInt64);
  for (int64_t v : {3, 7, 11}) refs.AppendInt64(v);
  ASSERT_TRUE(right.AddColumn("tag", std::move(labels)).ok());
  ASSERT_TRUE(right.AddColumn("left_ref", std::move(refs)).ok());
  ASSERT_TRUE(lake.AddTable(std::move(left)).ok());
  ASSERT_TRUE(lake.AddTable(std::move(right)).ok());
  LakeSketchCache cache = LakeSketchCache::Build(lake, 4096);

  // Each column's own keys: the key set of a one-column table.
  auto column_keys = [&](size_t t, size_t c) {
    const Table& table = lake.tables()[t];
    Result<Table> column = table.SelectColumns({table.ColumnNames()[c]});
    EXPECT_TRUE(column.ok());
    return TableBucketKeys(*column, {(*cache.GetOrBuild(table))[c]},
                           LshOptions{});
  };
  // Same-position columns share nothing; the cross pair does.
  EXPECT_FALSE(KeySetsIntersect(column_keys(0, 0), column_keys(1, 0)));
  EXPECT_FALSE(KeySetsIntersect(column_keys(0, 1), column_keys(1, 1)));
  EXPECT_TRUE(KeySetsIntersect(column_keys(0, 0), column_keys(1, 1)));
  const std::vector<std::vector<uint64_t>> keys =
      LakeBucketKeys(lake, cache, LshOptions{});
  EXPECT_TRUE(BucketKeyProbe(keys[0]).Collides(keys[1]));
  EXPECT_TRUE(BucketKeyProbe(keys[1]).Collides(keys[0]));
  const std::vector<std::pair<size_t, size_t>> want = {{0, 1}};
  EXPECT_EQ(LshCandidatePairs(keys), want);
}

TEST(LshCandidatePairsTest, EmptyKeySetCollidesWithNothing) {
  const std::vector<uint64_t> keys = {1, 2, 3};
  EXPECT_FALSE(BucketKeyProbe(std::vector<uint64_t>{}).Collides(keys));
  EXPECT_FALSE(BucketKeyProbe(keys).Collides({}));
  EXPECT_TRUE(BucketKeyProbe(keys).Collides({3}));
}

TEST(LshCandidatePairsTest, RecordsCountersAndReturnsItsBytes) {
  datagen::ScaleLakeSpec spec;
  spec.num_tables = 10;
  DataLake lake = datagen::BuildScaleLake(spec);
  LakeSketchCache cache = LakeSketchCache::Build(lake, 4096);
  MatchOptions options;
  options.candidate_mode = CandidateMode::kLsh;
  obs::MetricsRegistry metrics;
  std::vector<std::vector<uint64_t>> keys;
  const std::vector<std::pair<size_t, size_t>> pairs =
      CandidateTablePairs(lake, cache, options, nullptr, &metrics, &keys);
  size_t columns = 0, total_keys = 0;
  for (size_t t = 0; t < lake.num_tables(); ++t) {
    columns += lake.tables()[t].num_columns();
    total_keys += keys[t].size();
  }
  EXPECT_EQ(metrics.GetCounter("lsh.columns_indexed")->value(), columns);
  EXPECT_EQ(metrics.GetCounter("lsh.columns_skipped")->value(), 0u);
  EXPECT_GE(metrics.GetCounter("lsh.bucket_collisions")->value(),
            pairs.size());
  EXPECT_EQ(metrics.GetCounter("drg.candidate_pairs")->value(), pairs.size());
  // The pair pass's entry array is charged while it lives and returned
  // when it is freed.
  EXPECT_EQ(metrics.GetGauge("lsh_index.bytes")->value(), 0);
  EXPECT_EQ(metrics.GetGauge("lsh_index.bytes_peak")->value(),
            static_cast<int64_t>(total_keys *
                                 sizeof(std::pair<uint64_t, uint32_t>)));
  EXPECT_GT(metrics.GetGauge("lsh_index.bytes_peak")->value(), 0);
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
