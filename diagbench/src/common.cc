#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "obs/trace.h"
#include "scan/scan_kernels.h"

namespace diagbench {

namespace fs = std::filesystem;

namespace {
const std::chrono::steady_clock::time_point kStart =
    std::chrono::steady_clock::now();
}  // namespace

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kStart)
      .count();
}

void Fatal(const std::string& what) {
  std::fprintf(stderr, "diagbench: FATAL: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

uint64_t Digest(const void* data, size_t len, uint64_t h) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t DigestFetch(const mistique::FetchResult& r) {
  uint64_t h = Digest(r.row_ids.data(), r.row_ids.size() * sizeof(uint64_t));
  for (const std::string& name : r.column_names) {
    h = Digest(name.data(), name.size(), h);
  }
  for (const std::vector<double>& col : r.columns) {
    h = Digest(col.data(), col.size() * sizeof(double), h);
  }
  return h;
}

uint64_t DigestScan(const mistique::ScanResult& r) {
  uint64_t h = Digest(r.row_ids.data(), r.row_ids.size() * sizeof(uint64_t));
  for (const std::vector<double>& col : r.columns) {
    h = Digest(col.data(), col.size() * sizeof(double), h);
  }
  return h;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

std::pair<uint64_t, uint64_t> PartitionFileBytes(const std::string& dir) {
  uint64_t bytes = 0, files = 0;
  std::error_code ec;
  for (auto it = fs::directory_iterator(dir, ec);
       !ec && it != fs::directory_iterator(); it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.rfind("part-", 0) == 0 && name.size() > 8 &&
        name.compare(name.size() - 3, 3, ".mq") == 0) {
      bytes += it->file_size(ec);
      ++files;
    }
  }
  return {bytes, files};
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------------------ spans

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

SpanLog* Tracer::NewLog(const std::string& node) {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  logs_.push_back(std::make_unique<SpanLog>());
  logs_.back()->node = node;
  return logs_.back().get();
}

size_t Tracer::SpanCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t n = 0;
  for (const auto& log : logs_) n += log->spans.size();
  return n;
}

std::map<std::string, double> Tracer::MedianSelfMs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::vector<double>> self;
  for (const auto& log : logs_) {
    std::vector<double> child_time(log->spans.size(), 0.0);
    for (const Span& s : log->spans) {
      if (s.parent >= 0) {
        child_time[static_cast<size_t>(s.parent)] += s.end - s.start;
      }
    }
    for (size_t i = 0; i < log->spans.size(); ++i) {
      const Span& s = log->spans[i];
      self[s.name].push_back((s.end - s.start - child_time[i]) * 1e3);
    }
  }
  std::map<std::string, double> out;
  for (const auto& [name, v] : self) out[name] = Median(v);
  return out;
}

void Tracer::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  mistique::obs::QueryTrace root(0, "diagbench");
  root.node = "diagbench";
  for (const auto& log : logs_) {
    mistique::obs::QueryTrace child(log->spans.size(), log->node);
    child.node = log->node;
    for (const Span& s : log->spans) {
      uint32_t depth = 0;
      for (int p = s.parent; p >= 0; p = log->spans[static_cast<size_t>(p)].parent) {
        ++depth;
      }
      child.AddEvent(s.name + " #" + std::to_string(s.request), depth, s.start,
                     s.end - s.start, 0);
      root.total_sec = std::max(root.total_sec, s.end);
    }
    child.total_sec = root.total_sec;
    root.children.push_back(std::move(child));
  }
  std::ofstream f(path);
  f << mistique::obs::TraceToChromeJson(root);
}

SpanScope::SpanScope(SpanLog* log, const char* name, uint64_t request)
    : log_(log) {
  if (log_ == nullptr) return;
  Span s;
  s.name = name;
  s.start = Now();
  s.parent = log_->open.empty() ? -1 : log_->open.back();
  s.request = request;
  index_ = static_cast<int>(log_->spans.size());
  log_->spans.push_back(std::move(s));
  log_->open.push_back(index_);
}

SpanScope::~SpanScope() {
  if (log_ == nullptr) return;
  log_->spans[static_cast<size_t>(index_)].end = Now();
  log_->open.pop_back();
}

// ---------------------------------------------------------------- oracles

const std::vector<std::string> kOracleNames = {
    "routed_identical", "kbit_bin",   "scan_rows",    "topk_sort",
    "hist_count",       "knn_brute",  "trad_pipeline", "materialized",
    "stored_size"};

Oracles& Oracles::Get() {
  static Oracles* oracles = new Oracles();
  return *oracles;
}

bool Oracles::Corrupt(const char* oracle) {
  if (!self_check_) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  State& s = states_[oracle];
  if (s.corruption_issued) return false;
  s.corruption_issued = true;
  return true;
}

void Oracles::Report(const char* oracle, bool ok, bool corrupted,
                     const std::string& detail) {
  std::lock_guard<std::mutex> lock(mutex_);
  State& s = states_[oracle];
  ++s.checks;
  if (corrupted) {
    s.corruption_caught = !ok;
    if (ok) {
      std::fprintf(stderr, "self-check: oracle %s accepted a corrupted answer\n",
                   oracle);
    }
    return;
  }
  if (!ok) {
    ++s.failures;
    if (s.failures <= 5) {
      std::fprintf(stderr, "oracle %s FAILED: %s\n", oracle, detail.c_str());
    }
  }
}

bool Oracles::all_ok() const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, s] : states_) {
    if (s.failures != 0) return false;
  }
  return true;
}

uint64_t Oracles::checks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t n = 0;
  for (const auto& [name, s] : states_) n += s.checks;
  return n;
}

bool Oracles::SelfCheckPassed(const std::vector<std::string>& expected) const {
  std::lock_guard<std::mutex> lock(mutex_);
  bool passed = true;
  for (const std::string& name : expected) {
    auto it = states_.find(name);
    const bool caught = it != states_.end() && it->second.corruption_caught;
    const bool clean = it != states_.end() && it->second.failures == 0;
    std::fprintf(stderr, "self-check: %-17s %s%s\n", name.c_str(),
                 caught ? "caught its corruption" : "MISSED its corruption",
                 clean ? "" : " (and failed on a clean answer)");
    passed = passed && caught && clean;
  }
  return passed;
}

// --------------------------------------------------------------- results

namespace {
void AppendMetrics(const std::map<std::string, Metric>& metrics,
                   std::string* out) {
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char buf[128];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), v, m.unit.c_str());
    out->append(buf);
    first = false;
  }
}
}  // namespace

void PrintResult(const Args& args, const RunOutput& out, bool correct) {
  const char* build = DIAGBENCH_BUILD_TYPE;
  std::printf("# host: nproc=%ld kernel_tier=%s build=%s workload=%s seed=%llu "
              "trace=%d oracle_checks=%llu\n",
              sysconf(_SC_NPROCESSORS_ONLN), mistique::scan::KernelTier(),
              build, args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              static_cast<unsigned long long>(Oracles::Get().checks()));
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  AppendMetrics(args.trace ? out.per_layer : out.end_to_end, &line);
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace diagbench
