// Shared plumbing for the diagnosis benchmark: argument parsing, seeded
// randomness, latency statistics, span recording for traced runs, the
// oracle registry (with the self-check corruption hook) and the JSON
// result line.
#ifndef DIAGBENCH_COMMON_H_
#define DIAGBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/mistique.h"

namespace diagbench {

using mistique::Result;
using mistique::Status;

/// Seconds on the steady clock since the process started.
double Now();

[[noreturn]] void Fatal(const std::string& what);

inline void Must(const Status& status, const char* what) {
  if (!status.ok()) Fatal(std::string(what) + ": " + status.ToString());
}
template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) Fatal(std::string(what) + ": " + result.status().ToString());
  return std::move(result).ValueOrDie();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_check = false;
  /// Scratch root for stores and trace output (inside the checkout).
  std::string work_dir = ".bench_work";
};

/// Deterministic generator for everything derived from --seed.
using Rng = std::mt19937_64;
inline uint64_t Pick(Rng* rng, uint64_t n) {
  return std::uniform_int_distribution<uint64_t>(0, n - 1)(*rng);
}
inline double Uniform(Rng* rng) {
  return std::uniform_real_distribution<double>(0.0, 1.0)(*rng);
}

/// Nearest-rank quantile of `v` (q in [0,1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
double Median(const std::vector<double>& v);

/// Order-sensitive 64-bit digest over raw bytes (FNV-1a), used to compare
/// answers bit for bit without keeping them.
uint64_t Digest(const void* data, size_t len, uint64_t h = 1469598103934665603ull);
uint64_t DigestFetch(const mistique::FetchResult& r);
uint64_t DigestScan(const mistique::ScanResult& r);

/// Sum of the sizes of every regular file under `dir`.
uint64_t DirBytes(const std::string& dir);
/// Sum of the sizes of partition files (part-*.mq) under `dir`, and their count.
std::pair<uint64_t, uint64_t> PartitionFileBytes(const std::string& dir);
/// Peak resident set size of this process in MB.
double PeakRssMb();

// ------------------------------------------------------------------ spans

/// One recorded span: a public-layer call made from the benchmark.
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;        ///< index into the same log, -1 = root
  uint64_t request = 0;   ///< spans of one request share this id
};

/// Spans recorded by one thread; only that thread appends to it.
struct SpanLog {
  std::string node;
  std::vector<Span> spans;
  std::vector<int> open;  ///< stack of open span indices
};

/// In-memory span recorder for traced runs. Each thread asks for its own
/// log; when tracing is off every call is a no-op.
class Tracer {
 public:
  static Tracer& Get();
  void Enable(bool on) { enabled_ = on; }
  /// A fresh log owned by the tracer (nullptr when tracing is off).
  SpanLog* NewLog(const std::string& node);
  /// Median self time (ms) per span name over all logs: a span's duration
  /// minus the time its direct children cover.
  std::map<std::string, double> MedianSelfMs() const;
  /// Writes every span as Chrome trace_event JSON (via obs::TraceToChromeJson).
  void WriteChromeJson(const std::string& path) const;
  size_t SpanCount() const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

/// RAII span; inert when `log` is null.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, uint64_t request);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  int index_ = -1;
};

// ---------------------------------------------------------------- oracles

/// Every correctness oracle reports here. In self-check mode the first
/// check of each oracle is handed a corrupted answer (Corrupt returns true
/// once per oracle), and that check must fail.
class Oracles {
 public:
  static Oracles& Get();
  void SetSelfCheck(bool on) { self_check_ = on; }
  /// True exactly once per oracle name in self-check mode.
  bool Corrupt(const char* oracle);
  /// Records one check. `corrupted` is what Corrupt returned for it.
  void Report(const char* oracle, bool ok, bool corrupted,
              const std::string& detail);
  bool all_ok() const;
  /// Self-check verdict: every oracle in `expected` ran and caught its
  /// corruption. Prints one line per oracle to stderr.
  bool SelfCheckPassed(const std::vector<std::string>& expected) const;
  uint64_t checks() const;

 private:
  struct State {
    bool corruption_issued = false;
    bool corruption_caught = false;
    uint64_t checks = 0;
    uint64_t failures = 0;
  };
  bool self_check_ = false;
  mutable std::mutex mutex_;
  std::map<std::string, State> states_;
};

/// The oracle names; self-check requires each to catch its corruption.
extern const std::vector<std::string> kOracleNames;

// --------------------------------------------------------------- results

/// One metric as printed: value plus unit.
struct Metric {
  double value = 0;
  std::string unit;
};

struct RunOutput {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
};

/// Prints the host-facts comment line and the final JSON result line.
void PrintResult(const Args& args, const RunOutput& out, bool correct);

}  // namespace diagbench

#endif  // DIAGBENCH_COMMON_H_
