#include "core/autofeat.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/ranking.h"
#include "fs/streaming.h"
#include "relational/join_index.h"
#include "relational/sampling.h"
#include "util/rng.h"
#include "util/timer.h"

namespace autofeat {

namespace {

StreamingFeatureSelector::Options MakeSelectorOptions(
    const AutoFeatConfig& config) {
  StreamingFeatureSelector::Options options;
  options.relevance.kind = config.relevance;
  options.relevance.top_k = config.kappa;
  options.relevance.seed = config.seed;
  options.redundancy.kind = config.redundancy;
  options.use_relevance = config.use_relevance;
  options.use_redundancy = config.use_redundancy;
  return options;
}

// Every distinct join of one discovery, scored once (DESIGN.md §4.15). A
// left join keeps the base rows in order and picks one right row per key,
// so a candidate's appended columns — their completeness, codes, relevance
// and redundancy terms — depend only on the right table and the composed
// base-row -> right-row mapping. Those two are the key; names are not part
// of it, since collision suffixes differ between paths reaching the same
// rows. The hash only buckets: a match compares the full mapping.
class JoinMemo {
 public:
  struct Entry {
    size_t node = 0;
    std::vector<uint32_t> right_rows;
    bool low_quality = false;  // completeness < tau; `columns` stays empty
    ScoredColumns columns;
  };

  // Eight interleaved DeriveSeed folds over the mapping's 64-bit words,
  // then folded together: specified, and as fast as a byte hash because the
  // lanes do not wait on each other (a byte-serial Fnv1a64 took 8x longer).
  static uint64_t Hash(size_t node, const std::vector<uint32_t>& rows) {
    constexpr size_t kLanes = 8;
    uint64_t lanes[kLanes];
    for (size_t k = 0; k < kLanes; ++k) lanes[k] = k;
    const size_t n = rows.size();
    size_t i = 0;
    for (; i + 2 * kLanes <= n; i += 2 * kLanes) {
      for (size_t k = 0; k < kLanes; ++k) {
        uint64_t word;
        std::memcpy(&word, rows.data() + i + 2 * k, sizeof(word));
        lanes[k] = DeriveSeed(lanes[k], word);
      }
    }
    uint64_t hash = DeriveSeed(node, n);
    for (uint64_t lane : lanes) hash = DeriveSeed(hash, lane);
    for (; i < n; ++i) hash = DeriveSeed(hash, rows[i]);
    return hash;
  }

  /// The entry for (node, rows), or null. Safe to call concurrently while
  /// no Insert runs.
  Entry* Find(uint64_t hash, size_t node,
              const std::vector<uint32_t>& rows) const {
    auto [it, end] = index_.equal_range(hash);
    for (; it != end; ++it) {
      if (it->second->node == node && it->second->right_rows == rows) {
        return it->second;
      }
    }
    return nullptr;
  }

  /// Inserts `entry` unless its key is already present; returns the entry
  /// holding the key either way, so the first insert wins.
  Entry* Insert(uint64_t hash, Entry entry) {
    if (Entry* found = Find(hash, entry.node, entry.right_rows)) return found;
    Entry* stored = &entries_.emplace_back(std::move(entry));
    index_.emplace(hash, stored);
    return stored;
  }

 private:
  std::deque<Entry> entries_;  // stable addresses
  std::unordered_multimap<uint64_t, Entry*> index_;
};

}  // namespace

Result<DiscoveryResult> AutoFeat::DiscoverFeatures(
    const std::string& base_table, const std::string& label_column) {
  Timer total_timer;
  obs::ScopedSpan discover_span(tracer_, "discover");
  // All discovery counters are incremented from the coordinating thread
  // (phases 1 and 3, never inside ParallelMap workers), so their values —
  // and the deterministic digest — are identical at any thread count.
  obs::Counter* m_candidates =
      obs::GetCounter(metrics_, "discovery.candidates_scored");
  obs::Counter* m_materialised =
      obs::GetCounter(metrics_, "discovery.states_materialised");
  obs::Counter* m_view_scored =
      obs::GetCounter(metrics_, "discovery.view_scored");
  obs::Counter* m_pruned_infeasible =
      obs::GetCounter(metrics_, "discovery.pruned_infeasible");
  obs::Counter* m_pruned_quality =
      obs::GetCounter(metrics_, "discovery.pruned_quality");
  obs::Counter* m_pruned_redundant =
      obs::GetCounter(metrics_, "discovery.pruned_redundant");
  obs::Counter* m_ranked = obs::GetCounter(metrics_, "discovery.ranked_paths");
  obs::QuantileHistogram* m_frontier = obs::GetQuantile(
      metrics_, "discovery.frontier_size", /*deterministic=*/true);
  obs::Gauge* m_frontier_peak =
      obs::GetGauge(metrics_, "discovery.frontier_peak");

  AF_ASSIGN_OR_RETURN(const Table* base_full, lake_->GetTable(base_table));
  if (!base_full->HasColumn(label_column)) {
    return Status::KeyError("label column '" + label_column +
                            "' missing from base table " + base_table);
  }
  AF_ASSIGN_OR_RETURN(size_t base_node, drg_->NodeId(base_table));
  Rng rng(config_.seed);

  // Every (right table, key column) a path of at most max_hops hops from
  // the base can join into is interned once up front, in parallel, and
  // shared by all candidates; the rest of the lake is never touched.
  {
    obs::ScopedSpan span(tracer_, "discover.prewarm");
    join_cache_->Prewarm(*drg_, pool_.get(),
                         JoinIndexCache::Reach{base_node, config_.max_hops});
  }

  // Stratified sampling speeds up feature selection without biasing the
  // label distribution (§VI); model training later uses the full data.
  Table base_sampled = *base_full;
  if (config_.sample_rows > 0 && base_full->num_rows() > config_.sample_rows) {
    obs::ScopedSpan span(tracer_, "discover.stratified_sample");
    AF_ASSIGN_OR_RETURN(
        base_sampled,
        StratifiedSample(*base_full, label_column, config_.sample_rows, &rng));
  }

  StreamingFeatureSelector selector(MakeSelectorOptions(config_));
  double fs_seconds = 0.0;
  // Left joins preserve the base rows in order, so every candidate's view
  // shares one label block (values, codes, sorted order), prepared once.
  std::shared_ptr<const LabelBlock> label;
  {
    obs::ScopedSpan span(tracer_, "discover.seed_base_features");
    Timer t;
    AF_ASSIGN_OR_RETURN(FeatureView base_view,
                        FeatureView::FromTable(base_sampled, label_column));
    selector.SeedWithBaseFeatures(base_view);
    label = base_view.label();
    fs_seconds += t.ElapsedSeconds();
  }
  obs::ScopedSpan bfs_span(tracer_, "discover.bfs");

  // BFS frontier of partial join paths, each carrying its (sampled) join
  // result so transitive joins extend the intermediate table (§IV-B).
  struct State {
    JoinPath path;
    Table table;
    double score = 0.0;
    std::vector<FeatureScore> selected;
  };
  std::deque<State> frontier;
  frontier.push_back(State{JoinPath{}, std::move(base_sampled), 0.0, {}});

  DiscoveryResult result;
  JoinMemo memo;
  // Tables reached by any path so far (drives the beam's novelty order).
  std::vector<bool> node_visited(drg_->num_nodes(), false);
  node_visited[base_node] = true;
  // Signatures of (visited node set, terminal) used for path dedup.
  std::unordered_set<std::string> seen_signatures;
  auto signature = [&](const JoinPath& path) {
    std::vector<size_t> nodes;
    nodes.reserve(path.steps.size());
    for (const auto& s : path.steps) nodes.push_back(s.to_node);
    size_t terminal = nodes.empty() ? base_node : nodes.back();
    std::sort(nodes.begin(), nodes.end());
    std::string sig;
    for (size_t n : nodes) {
      sig += std::to_string(n);
      sig += ',';
    }
    sig += ':';
    sig += std::to_string(terminal);
    return sig;
  };

  // Eviction-schedule stress (qa/bench): between BFS rounds, drop cache
  // entries so later rounds exercise rebuild-on-miss. Runs on the
  // coordinating thread with a counter-derived draw, so the schedule is a
  // pure function of the seed — and the invariant that results do not
  // depend on it is checked by qa's cache.eviction_oblivious.
  uint64_t stress_round = 0;
  auto stress_evict = [&] {
    switch (config_.eviction_stress) {
      case EvictionStress::kNone:
        return;
      case EvictionStress::kEvictAll:
        join_cache_->EvictAll();
        return;
      case EvictionStress::kRandom:
        join_cache_->EvictRandomHalf(
            DeriveSeed(config_.seed, 0xE71C7ULL + stress_round++));
        return;
    }
  };

  while (!frontier.empty() && result.paths_explored < config_.max_paths) {
    obs::Record(m_frontier, frontier.size());
    obs::UpdateMax(m_frontier_peak, frontier.size());
    State state = std::move(frontier.front());
    frontier.pop_front();
    if (state.path.length() >= config_.max_hops) continue;
    size_t tail = state.path.Terminal(base_node);

    // Beam pruning: on dense discovered graphs expand only a bounded set
    // of neighbours per path — never-visited tables first (they are the
    // only way to reach new features), then by similarity. On KFK trees
    // every child is unvisited, so the beam changes nothing there.
    std::vector<size_t> neighbors = drg_->Neighbors(tail);
    if (config_.beam_width > 0 && neighbors.size() > config_.beam_width) {
      auto weight = [&](size_t node) {
        double best = 0.0;
        for (const auto& e : drg_->EdgesBetween(tail, node)) {
          best = std::max(best, e.weight);
        }
        return best;
      };
      std::stable_sort(neighbors.begin(), neighbors.end(),
                       [&](size_t a, size_t b) {
                         bool fresh_a = !node_visited[a];
                         bool fresh_b = !node_visited[b];
                         if (fresh_a != fresh_b) return fresh_a;
                         return weight(a) > weight(b);
                       });
      neighbors.resize(config_.beam_width);
    }

    // Phase 1 — collect this state's candidate edges. The gates here are
    // cheap but order-sensitive (dedup signatures, the max_paths budget), so
    // they run sequentially, exactly as the legacy loop ordered them.
    struct Candidate {
      JoinStep edge;
      size_t neighbor = 0;
      const Table* right = nullptr;
    };
    std::vector<Candidate> candidates;
    for (size_t neighbor : neighbors) {
      if (neighbor == base_node || state.path.ContainsNode(neighbor)) continue;
      auto table_result = lake_->GetTable(drg_->NodeName(neighbor));
      if (!table_result.ok()) continue;
      const Table* right = *table_result;
      // Candidate tables must not carry the label (left-join assumption of
      // §IV-B: Y only lives in the base table).
      if (right->HasColumn(label_column)) continue;

      // Similarity-score pruning keeps only the best join columns (§IV-C).
      for (const JoinStep& edge : drg_->BestEdgesBetween(tail, neighbor)) {
        if (result.paths_explored >= config_.max_paths) break;
        // Never join on the target column: a label-valued join key leaks
        // the label into the appended features.
        if (edge.from_column == label_column) continue;
        if (config_.dedup_node_sets &&
            !seen_signatures.insert(signature(state.path.Extend(edge)))
                 .second) {
          continue;  // Same table set and terminal already explored.
        }
        ++result.paths_explored;

        if (!state.table.HasColumn(edge.from_column)) {
          ++result.paths_pruned_infeasible;
          obs::Increment(m_pruned_infeasible);
          continue;
        }
        candidates.push_back(Candidate{edge, neighbor, right});
      }
    }

    // Phase 2 — evaluate every candidate concurrently: join, then, unless
    // the memo already holds this distinct join, completeness, the feature
    // view and the (stateless, name-free) relevance scores. Tasks only read
    // shared state, the memo included; each writes its own Eval slot.
    //
    // The candidate is never materialised here: the cached key index yields
    // a left-row -> right-row mapping, and completeness + the relevance view
    // are computed through gathered views of only the appended columns.
    struct Eval {
      Status status;               // FeatureView failure, surfaced in order
      bool infeasible = false;     // join failed or matched no rows
      std::vector<std::string> appended;  // resolved new names
      uint64_t key_hash = 0;
      JoinMemo::Entry* hit = nullptr;  // memo hit: `miss` stays empty
      JoinMemo::Entry miss;            // fresh evaluation, inserted in phase 3
      double fs_seconds = 0.0;
    };
    obs::TaskContext bfs_ctx = obs::CaptureTaskContext(
        candidates.empty() ? nullptr : tracer_);
    std::vector<Eval> evals = ParallelMap<Eval>(
        pool_.get(), candidates.size(), /*grain=*/1, [&](size_t c) {
          obs::ScopedWorkerSpan task_span(bfs_ctx, "bfs.candidate");
          const Candidate& cand = candidates[c];
          Eval ev;
          auto index = join_cache_->GetOrBuild(
              drg_->NodeName(cand.neighbor), cand.edge.to_column);
          auto lkey = state.table.GetColumn(cand.edge.from_column);
          if (!index.ok() || !lkey.ok()) {
            ev.infeasible = true;
            return ev;
          }
          JoinRowMap map = MapLeftJoin(**lkey, **index);
          if (map.stats.matched_rows == 0) {
            ev.infeasible = true;
            return ev;
          }
          ev.key_hash = JoinMemo::Hash(cand.neighbor, map.right_rows);
          ev.hit = memo.Find(ev.key_hash, cand.neighbor, map.right_rows);
          if (ev.hit != nullptr) {
            if (!ev.hit->low_quality) {
              ev.appended = ResolveAppendedNames(state.table, *cand.right);
            }
            return ev;
          }
          ev.miss.node = cand.neighbor;
          // Data-quality pruning straight through the mapping (§IV-C):
          // a null in an appended column is an unmatched left row or a
          // right-side null.
          size_t cells = cand.right->num_columns() * map.right_rows.size();
          size_t nulls = 0;
          for (size_t col = 0; col < cand.right->num_columns(); ++col) {
            nulls += GatherNullCount(cand.right->column(col), map.right_rows);
          }
          double completeness =
              cells == 0 ? 1.0
                         : 1.0 - static_cast<double>(nulls) /
                                     static_cast<double>(cells);
          if (completeness < config_.tau) {
            ev.miss.low_quality = true;
            ev.miss.right_rows = std::move(map.right_rows);
            return ev;
          }
          ev.appended = ResolveAppendedNames(state.table, *cand.right);
          Timer t;
          std::vector<std::vector<double>> numeric;
          numeric.reserve(cand.right->num_columns());
          for (size_t col = 0; col < cand.right->num_columns(); ++col) {
            numeric.push_back(
                GatherNumeric(cand.right->column(col), map.right_rows));
          }
          auto view =
              FeatureView::FromColumns(ev.appended, std::move(numeric), label);
          if (!view.ok()) {
            ev.status = view.status();
            return ev;
          }
          std::vector<size_t> all_indices(view->num_features());
          for (size_t i = 0; i < all_indices.size(); ++i) all_indices[i] = i;
          ev.miss.columns = selector.ScoreColumns(*view, all_indices);
          ev.fs_seconds = t.ElapsedSeconds();
          ev.miss.right_rows = std::move(map.right_rows);
          return ev;
        });

    // Phase 3 — merge in candidate (edge) order. The redundancy stage
    // mutates R_sel, so it stays sequential here; because the merge order
    // equals the legacy evaluation order, the ranked output is identical.
    // Misses enter the memo in this order too: a second miss on a key
    // already inserted (a duplicate within one batch) takes the first
    // entry, so the memo is a pure function of the merge order.
    obs::Increment(m_candidates, candidates.size());
    for (size_t c = 0; c < candidates.size(); ++c) {
      Eval& ev = evals[c];
      if (!ev.status.ok()) return ev.status;
      if (ev.infeasible) {
        ++result.paths_pruned_infeasible;
        obs::Increment(m_pruned_infeasible);
        continue;
      }
      JoinMemo::Entry* join =
          ev.hit != nullptr ? ev.hit
                            : memo.Insert(ev.key_hash, std::move(ev.miss));
      if (join->low_quality) {
        ++result.paths_pruned_quality;
        obs::Increment(m_pruned_quality);
        continue;
      }
      obs::Increment(m_view_scored);
      fs_seconds += ev.fs_seconds;
      Timer t;
      StreamingFeatureSelector::BatchResult batch =
          selector.CommitBatch(ev.appended, &join->columns);
      fs_seconds += t.ElapsedSeconds();

      State next;
      next.path = state.path.Extend(candidates[c].edge);
      next.score =
          state.score + ComputeRankingScore(batch.relevant, batch.selected);
      next.selected = state.selected;
      next.selected.insert(next.selected.end(), batch.selected.begin(),
                           batch.selected.end());
      // Paths whose batch was all-irrelevant or all-redundant are not
      // ranked but stay in the frontier: they may be the gateway to
      // relevant multi-hop features (§V-A).
      if (!batch.selected.empty()) {
        result.ranked.push_back(
            RankedPath{next.path, next.score, next.selected});
        obs::Increment(m_ranked);
      } else {
        obs::Increment(m_pruned_redundant);
      }
      node_visited[candidates[c].neighbor] = true;
      // Leaf states (at the hop limit) can never expand; skip carrying
      // their join result into the frontier. Late materialisation: this is
      // the only place a candidate's join becomes a real Table — pruned
      // candidates and hop-limit leaves never pay for one.
      if (next.path.length() < config_.max_hops) {
        obs::Increment(m_materialised);
        next.table = state.table;
        const Table& right = *candidates[c].right;
        for (size_t col = 0; col < right.num_columns(); ++col) {
          AF_RETURN_NOT_OK(next.table.AddColumn(
              ev.appended[col],
              GatherColumn(right.column(col), join->right_rows)));
        }
        frontier.push_back(std::move(next));
      }
    }
    stress_evict();
  }

  // Descending score; stable keeps BFS (shortest-first) order for ties.
  std::stable_sort(result.ranked.begin(), result.ranked.end(),
                   [](const RankedPath& a, const RankedPath& b) {
                     return a.score > b.score;
                   });
  result.feature_selection_seconds = fs_seconds;
  result.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

Result<Table> AutoFeat::MaterializeAugmentedTable(
    const std::string& base_table, const RankedPath& ranked,
    const std::string& label_column) {
  AF_ASSIGN_OR_RETURN(const Table* base, lake_->GetTable(base_table));
  if (!base->HasColumn(label_column)) {
    return Status::KeyError("label column '" + label_column +
                            "' missing from base table " + base_table);
  }
  AF_ASSIGN_OR_RETURN(Table selected,
                      GatherSelectedColumns(base_table, ranked));
  Table augmented = *base;
  for (size_t c = 0; c < selected.num_columns(); ++c) {
    const std::string& name = selected.schema().field(c).name;
    AF_RETURN_NOT_OK(
        augmented.AddColumn(name, std::move(*selected.mutable_column(c))));
  }
  augmented.set_name(base->name() + "_augmented");
  return augmented;
}

Result<Table> AutoFeat::GatherSelectedColumns(const std::string& base_table,
                                              const RankedPath& ranked) {
  AF_ASSIGN_OR_RETURN(const Table* base_ptr, lake_->GetTable(base_table));
  const Table& base = *base_ptr;
  // Where each column of the accumulated join comes from: a base column, or
  // column `column` of the right table of hop `hop`.
  constexpr size_t kBase = static_cast<size_t>(-1);
  struct Source {
    size_t hop = kBase;
    size_t column = 0;
  };
  const std::vector<std::string> base_names = base.ColumnNames();
  std::vector<std::string> names = base_names;
  std::unordered_map<std::string, Source> sources;
  for (size_t c = 0; c < names.size(); ++c) sources[names[c]] = {kBase, c};
  std::vector<const Table*> rights;
  // Per hop: base row -> its right row (kNoMatchRow when unmatched). A left
  // join keeps the base rows in order, so this is the whole hop.
  std::vector<std::vector<uint32_t>> hop_rows;

  for (const JoinStep& step : ranked.path.steps) {
    const std::string& right_name = drg_->NodeName(step.to_node);
    AF_ASSIGN_OR_RETURN(const Table* right, lake_->GetTable(right_name));
    auto key = sources.find(step.from_column);
    if (key == sources.end()) {
      return Status::KeyError("join column vanished during materialisation: " +
                              step.from_column);
    }
    // The shared cache means the full-data join picks the same per-key
    // representatives the discovery phase scored (rebuilds after eviction
    // reproduce them exactly).
    AF_ASSIGN_OR_RETURN(JoinIndexCache::IndexPin index,
                        join_cache_->GetOrBuild(right_name, step.to_column));
    const Source from = key->second;
    std::vector<uint32_t> rows;
    if (from.hop == kBase) {
      rows = MapLeftJoin(base.column(from.column), *index).right_rows;
    } else {
      // The key is an earlier hop's column gathered onto the base rows:
      // probe that hop's right table once and compose the two mappings. A
      // null or unmatched key matches nothing either way.
      const std::vector<uint32_t> via =
          MapLeftJoin(rights[from.hop]->column(from.column), *index)
              .right_rows;
      rows = hop_rows[from.hop];
      for (uint32_t& row : rows) {
        if (row != kNoMatchRow) row = via[row];
      }
    }
    std::vector<std::string> appended = ResolveAppendedNames(names, *right);
    for (size_t c = 0; c < appended.size(); ++c) {
      sources[appended[c]] = {rights.size(), c};
      names.push_back(std::move(appended[c]));
    }
    rights.push_back(right);
    hop_rows.push_back(std::move(rows));
  }

  // The selected features in selection order, once each; a name the base
  // already has is the base column.
  Table out(base.name());
  std::unordered_set<std::string> seen(base_names.begin(), base_names.end());
  for (const auto& fs : ranked.selected_features) {
    auto it = sources.find(fs.name);
    if (it == sources.end() || !seen.insert(fs.name).second) continue;
    const Source& from = it->second;
    AF_RETURN_NOT_OK(out.AddColumn(
        fs.name, GatherColumn(rights[from.hop]->column(from.column),
                              hop_rows[from.hop])));
  }
  return out;
}

Result<AugmentationResult> AutoFeat::Augment(const std::string& base_table,
                                             const std::string& label_column,
                                             ml::ModelKind model) {
  Timer total_timer;
  obs::ScopedSpan augment_span(tracer_, "augment");
  AugmentationResult out;
  AF_ASSIGN_OR_RETURN(out.discovery,
                      DiscoverFeatures(base_table, label_column));
  obs::ScopedSpan eval_span(tracer_, "augment.evaluate");

  ml::TrainerOptions trainer_options;
  trainer_options.seed = config_.seed;

  AF_ASSIGN_OR_RETURN(const Table* base, lake_->GetTable(base_table));
  size_t k = std::min(config_.top_k_paths, out.discovery.ranked.size());
  obs::Increment(obs::GetCounter(metrics_, "evaluation.paths_evaluated"), k);
  obs::Increment(obs::GetCounter(metrics_, "evaluation.models_trained"),
                 k + 1);

  // The split, the encoded base and its bin edges and codes are the same
  // for every model, so they are prepared once.
  ml::TrainingPlan plan;
  {
    obs::ScopedSpan span(tracer_, "augment.plan");
    AF_ASSIGN_OR_RETURN(
        plan, ml::TrainingPlan::Make(*base, label_column, model,
                                     trainer_options, pool_.get(), tracer_));
  }

  // Task 0 trains on the bare base table (the fallback when no rankable
  // path exists); task i > 0 trains on the base plus ranked path i-1's
  // selected columns. The tasks share only the plan and the read-only
  // caches, so they run concurrently and merge in index order. They start
  // widest model first, so the cheap base model runs last, and a GBDT fit
  // hands its row chunks to whatever lanes the other tasks leave idle.
  std::vector<size_t> order(k + 1);
  for (size_t i = 0; i <= k; ++i) order[i] = i;
  auto width = [&](size_t i) {
    return i == 0 ? 0 : out.discovery.ranked[i - 1].selected_features.size();
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return width(a) > width(b); });
  struct PathEval {
    Status status;
    double accuracy = 0.0;
  };
  obs::TaskContext eval_ctx = obs::CaptureTaskContext(tracer_);
  auto evaluate = [&](size_t i) {
    obs::ScopedWorkerSpan task_span(eval_ctx, "evaluate.path");
    PathEval ev;
    Table selected;
    if (i > 0) {
      auto gathered =
          GatherSelectedColumns(base_table, out.discovery.ranked[i - 1]);
      if (!gathered.ok()) {
        ev.status = gathered.status();
        return ev;
      }
      selected = gathered.MoveValue();
    }
    auto eval = plan.Evaluate(selected);
    if (!eval.ok()) {
      ev.status = eval.status();
      return ev;
    }
    ev.accuracy = eval->accuracy;
    return ev;
  };
  std::vector<PathEval> evals(k + 1);
  ParallelFor(pool_.get(), 0, k + 1, /*grain=*/1, [&](size_t position) {
    evals[order[position]] = evaluate(order[position]);
  });

  for (const PathEval& ev : evals) {
    if (!ev.status.ok()) return ev.status;
  }
  size_t best = 0;
  for (size_t i = 1; i < evals.size(); ++i) {
    if (evals[i].accuracy > evals[best].accuracy) best = i;
  }
  out.accuracy = evals[best].accuracy;
  if (best == 0) {
    out.augmented = *base;
  } else {
    out.best_path = out.discovery.ranked[best - 1];
    AF_ASSIGN_OR_RETURN(out.augmented,
                        MaterializeAugmentedTable(base_table, out.best_path,
                                                  label_column));
  }
  out.total_seconds = total_timer.ElapsedSeconds();
  return out;
}

}  // namespace autofeat
