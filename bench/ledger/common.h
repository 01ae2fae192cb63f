// Types shared by the ledger's workloads and its main program (ledger.cc).
//
// A workload is two functions: `generate` writes its seeded lake to a
// directory (run in a child process, so neither its time nor its memory
// shows in the measurements), and `run` performs one measured pass over
// that directory through the library's public entry points. The main
// program runs an untraced pass for the end-to-end metrics; with --trace it
// runs a second pass with a Tracer and registries attached and derives the
// per-layer ledger from it.

#ifndef AUTOFEAT_BENCH_LEDGER_COMMON_H_
#define AUTOFEAT_BENCH_LEDGER_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/status.h"

namespace autofeat::ledger {

/// The engine seed. The workload seed drives data generation and mutation
/// payloads only, so a seed change moves the inputs, never the algorithm.
constexpr uint64_t kEngineSeed = 42;

/// One measured pass over a generated lake.
struct PassOptions {
  uint64_t seed = 42;
  /// Length of the measured window (set-up and checks excluded).
  double seconds = 10.0;
  /// Directory holding the generated lake.
  std::string lake_dir;
  /// All three null on the untraced pass. On the traced pass `metrics`
  /// receives the engine, cache and service counters and `drg_metrics`
  /// only those of DRG construction, so per-build counts stay clean.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  obs::MetricsRegistry* drg_metrics = nullptr;
};

/// Operation and check outcomes. Thread-safe: serving readers and the
/// mutator report concurrently.
class Tally {
 public:
  /// Counts one operation; a non-OK status counts as failed. Returns ok.
  bool Op(const Status& status, const std::string& what);
  /// Counts one correctness check. Returns ok.
  bool Check(bool ok, const std::string& what);

  size_t attempted() const;
  size_t failed() const;
  /// The first few failure messages (the rest are only counted).
  std::vector<std::string> failures() const;

 private:
  mutable std::mutex mutex_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// What one pass measured.
struct PassResult {
  /// Wall seconds of each set-up repetition (lake load + DRG, or Create).
  std::vector<double> setup_s;
  /// Latency samples of feature-discovery calls, in ms: one per call on
  /// the serving workloads, one per round over all lakes (the mean per
  /// lake) on the batch workloads.
  std::vector<double> discover_ms;
  /// The same for the workload's other operation: Augment (batch) or one
  /// lake mutation (serving).
  std::vector<double> other_ms;
  /// Operations completed in the measured window and its wall length.
  size_t ops = 0;
  double window_s = 0.0;
  /// Summed DiscoveryResult::feature_selection_seconds and the number of
  /// discovery runs that produced them (Augment runs one internally).
  double fs_seconds = 0.0;
  size_t discoveries = 0;
  /// Workload-specific per-layer figures (probes, waits, lineage), by
  /// ledger name; filled on the traced pass.
  std::map<std::string, double> layers;
  /// Lines printed under the metrics (accuracy, tails, sizes).
  std::vector<std::string> notes;
  Tally tally;
};

struct Workload {
  const char* name;
  /// Writes the seeded lake into `dir` (which exists and is empty).
  Status (*generate)(uint64_t seed, const std::string& dir);
  void (*run)(const PassOptions& options, PassResult* result);
};

/// The four workloads, in README order.
const std::vector<Workload>& Workloads();

// Defined in batch.cc / serve.cc.
Status GenerateLakeDense(uint64_t seed, const std::string& dir);
void RunLakeDense(const PassOptions& options, PassResult* result);
Status GenerateKfkTrain(uint64_t seed, const std::string& dir);
void RunKfkTrain(const PassOptions& options, PassResult* result);
Status GenerateServeMixed(uint64_t seed, const std::string& dir);
void RunServeMixed(const PassOptions& options, PassResult* result);
Status GenerateServeWide(uint64_t seed, const std::string& dir);
void RunServeWide(const PassOptions& options, PassResult* result);

/// Pins the calling thread to the `slot`-th CPU (modulo their number) the
/// process was allowed at start-up. The serving workloads' client threads
/// pin one per CPU, and a sequential batch engine's calling thread pins
/// too: left to the scheduler, a lone reader issuing identical queries
/// measured p50 4.2 ms / p90 6.1 ms, pinned 3.7 / 3.9 ms.
void PinThisThread(size_t slot);

/// printf into a std::string (for PassResult::notes).
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace autofeat::ledger

#endif  // AUTOFEAT_BENCH_LEDGER_COMMON_H_
