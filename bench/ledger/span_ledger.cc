#include "span_ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace autofeat::ledger {

double UnionLength(std::vector<std::pair<double, double>> intervals,
                   double lo, double hi) {
  for (auto& [start, end] : intervals) {
    start = std::max(start, lo);
    end = std::min(end, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = lo;
  for (const auto& [start, end] : intervals) {
    if (end <= reach) continue;
    covered += end - std::max(start, reach);
    reach = end;
  }
  return covered;
}

namespace {

// Parent of every closed span by time nesting on its own thread; spans no
// span of their thread encloses keep the recorded parent (the enqueue site
// of a pool task running on another thread).
std::vector<size_t> NestingParents(const std::vector<obs::SpanRecord>& spans) {
  std::vector<size_t> parent(spans.size() + 1, 0);
  std::vector<const obs::SpanRecord*> order;
  for (const obs::SpanRecord& span : spans) {
    if (span.end_seconds < 0) continue;
    parent[span.id] = span.parent;
    order.push_back(&span);
  }
  // Per thread, outer spans first: earlier start, then longer, then opened
  // earlier.
  std::sort(order.begin(), order.end(),
            [](const obs::SpanRecord* a, const obs::SpanRecord* b) {
              if (a->thread != b->thread) return a->thread < b->thread;
              if (a->start_seconds != b->start_seconds) {
                return a->start_seconds < b->start_seconds;
              }
              if (a->end_seconds != b->end_seconds) {
                return a->end_seconds > b->end_seconds;
              }
              return a->id < b->id;
            });
  std::vector<const obs::SpanRecord*> open;
  for (size_t i = 0; i < order.size(); ++i) {
    const obs::SpanRecord* span = order[i];
    if (i > 0 && order[i - 1]->thread != span->thread) open.clear();
    while (!open.empty() && open.back()->end_seconds < span->end_seconds) {
      open.pop_back();
    }
    if (!open.empty()) parent[span->id] = open.back()->id;
    open.push_back(span);
  }
  return parent;
}

}  // namespace

std::map<std::string, SpanStat> AggregateByName(
    const std::vector<obs::SpanRecord>& spans) {
  // Snapshot ids are 1-based and contiguous, so they index `children`.
  const std::vector<size_t> parent = NestingParents(spans);
  std::vector<std::vector<std::pair<double, double>>> children(spans.size() +
                                                               1);
  for (const obs::SpanRecord& span : spans) {
    const size_t p = parent[span.id];
    if (span.end_seconds < 0 || p == 0 || p > spans.size()) continue;
    children[p].emplace_back(span.start_seconds, span.end_seconds);
  }
  std::map<std::string, SpanStat> out;
  for (const obs::SpanRecord& span : spans) {
    if (span.end_seconds < 0) continue;
    const double duration = span.end_seconds - span.start_seconds;
    SpanStat& stat = out[span.name];
    ++stat.count;
    stat.total_s += duration;
    stat.self_s += duration - UnionLength(children[span.id], span.start_seconds,
                                          span.end_seconds);
  }
  return out;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::optional<double> TailPercentile(std::vector<double> samples, double q) {
  const size_t n = samples.size();
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));  // 1-based
  if (rank == 0 || n - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

namespace {

obs::SpanRecord Span(size_t id, size_t parent, size_t thread, const char* name,
                     double start, double end) {
  obs::SpanRecord span;
  span.id = id;
  span.parent = parent;
  span.thread = thread;
  span.name = name;
  span.start_seconds = start;
  span.end_seconds = end;
  return span;
}

bool Expect(const char* what, double got, double want) {
  const bool ok = std::fabs(got - want) < 1e-9;
  std::printf("  %-58s %s (got %g, want %g)\n", what, ok ? "ok" : "FAIL", got,
              want);
  return ok;
}

bool ExpectTail(const char* what, const std::vector<double>& samples,
                double q, std::optional<double> want) {
  const std::optional<double> got = TailPercentile(samples, q);
  const bool ok = got == want;
  std::printf("  %-58s %s\n", what, ok ? "ok" : "FAIL");
  return ok;
}

std::vector<double> OneTo(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;
}

}  // namespace

bool SelfTest() {
  bool ok = true;
  std::printf("union rule\n");
  // root [0,10] on thread 0 has children a [1,4] and b [3,6] on worker
  // threads 1 and 2, which overlap as parallel workers do, and c [8,9] and
  // e [9,10] on its own thread; a has a child [2,3]; d [9.5,11] on thread 3
  // overruns its parent e and is clipped.
  const std::vector<obs::SpanRecord> tree = {
      Span(1, 0, 0, "root", 0, 10),   Span(2, 1, 1, "a", 1, 4),
      Span(3, 1, 2, "b", 3, 6),       Span(4, 1, 0, "c", 8, 9),
      Span(5, 2, 1, "a.child", 2, 3), Span(6, 1, 0, "e", 9, 10),
      Span(7, 6, 3, "d", 9.5, 11),    Span(8, 1, 0, "open", 2, -1),
      // On thread 4 the tracer records x under the worker span w, the
      // innermost open *worker* span, although the later orchestration
      // span o encloses it: time nesting on the thread makes o its parent.
      Span(9, 0, 4, "q", 20, 31),     Span(10, 9, 4, "o", 21, 29),
      Span(11, 9, 4, "w", 20, 30),    Span(12, 11, 4, "x", 22, 28)};
  const auto stats = AggregateByName(tree);
  // Union of a, b, c, e inside root: [1,6] + [8,10] = 7, so self is 3; a
  // per-child sum would subtract 3 + 3 + 1 + 1 = 8 and report 2.
  ok &= Expect("root self = 10 - |[1,6] u [8,10]|", stats.at("root").self_s,
               3.0);
  ok &= Expect("a self = 3 - 1", stats.at("a").self_s, 2.0);
  ok &= Expect("b self (leaf) = duration", stats.at("b").self_s, 3.0);
  ok &= Expect("e self = 1 - |[9.5,11] clipped to [9,10]|",
               stats.at("e").self_s, 0.5);
  ok &= Expect("open spans are skipped",
               static_cast<double>(stats.count("open")), 0.0);
  ok &= Expect("o self = 8 - 6 (x nests in o by time)", stats.at("o").self_s,
               2.0);
  ok &= Expect("w self = 10 - 8 (o nests in w)", stats.at("w").self_s, 2.0);
  ok &= Expect("q self = 11 - 10", stats.at("q").self_s, 1.0);
  ok &= Expect("UnionLength of nested + disjoint intervals",
               UnionLength({{0, 4}, {1, 2}, {5, 6}}, 0, 10), 5.0);

  std::printf("percentile rule (>= %zu samples beyond)\n", kMinSamplesBeyond);
  ok &= ExpectTail("p90 of 1..100 = 90 (10 beyond)", OneTo(100), 0.90, 90.0);
  ok &= ExpectTail("p90 of 1..99 refused (9 beyond)", OneTo(99), 0.90,
                   std::nullopt);
  ok &= ExpectTail("p99 of 1..1000 = 990", OneTo(1000), 0.99, 990.0);
  ok &= ExpectTail("p99 of 1..999 refused", OneTo(999), 0.99, std::nullopt);
  ok &= ExpectTail("p50 of 1..19 refused (9 beyond)", OneTo(19), 0.50,
                   std::nullopt);
  ok &= Expect("median of {3,1,2}", Median({3, 1, 2}), 2.0);
  ok &= Expect("median of {4,1,3,2}", Median({4, 1, 3, 2}), 2.5);
  std::printf("selftest: %s\n", ok ? "all checks passed" : "FAILED");
  return ok;
}

}  // namespace autofeat::ledger
