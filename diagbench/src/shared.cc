#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench.h"
#include "cluster/shard_map.h"
#include "obs/metrics.h"

namespace diagbench {

using namespace mistique;  // NOLINT: benchmark brevity.

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kPointQ: return "POINTQ";
    case Kind::kTopK: return "TOPK";
    case Kind::kColDiff: return "COL_DIFF";
    case Kind::kColDist: return "COL_DIST";
    case Kind::kKnn: return "KNN";
    case Kind::kRowDiff: return "ROW_DIFF";
    case Kind::kVis: return "VIS";
  }
  return "?";
}

namespace {
double WindowedP99(std::vector<QueryRecord> queries) {
  std::sort(queries.begin(), queries.end(),
            [](const QueryRecord& a, const QueryRecord& b) { return a.done < b.done; });
  const size_t windows = std::max<size_t>(1, queries.size() / 1000);
  std::vector<double> p99s;
  for (size_t w = 0; w < windows; ++w) {
    const size_t begin = queries.size() * w / windows;
    const size_t end = queries.size() * (w + 1) / windows;
    std::vector<double> v;
    for (size_t i = begin; i < end; ++i) v.push_back(queries[i].latency_ms);
    p99s.push_back(Quantile(v, 0.99));
  }
  return Median(p99s);
}
}  // namespace

void FillEndToEnd(const SetupStats& setup,
                  const std::vector<QueryRecord>& queries,
                  double phase_seconds, double stored_per_logical,
                  RunOutput* out) {
  std::vector<double> all, fetch, scan;
  for (const QueryRecord& q : queries) {
    all.push_back(q.latency_ms);
    (IsScan(q.kind) ? scan : fetch).push_back(q.latency_ms);
  }
  auto& m = out->end_to_end;
  m["setup_s"] = {Median(setup.setup_s), "s"};
  m["ingest_mb_per_s"] = {Median(setup.ingest_mb_per_s), "MB/s"};
  m["stored_per_logical"] = {stored_per_logical, "ratio"};
  m["queries_per_s"] = {static_cast<double>(queries.size()) / phase_seconds,
                        "1/s"};
  m["query_p50_ms"] = {Quantile(all, 0.50), "ms"};
  m["query_p99_ms"] = {WindowedP99(queries), "ms"};
  m["fetch_p50_ms"] = {Median(fetch), "ms"};
  m["scan_p50_ms"] = {Median(scan), "ms"};
  m["peak_rss_mb"] = {PeakRssMb(), "MB"};
  if (all.size() < 1000) {
    std::fprintf(stderr, "diagbench: only %zu queries; p99 has fewer than 10 "
                 "samples beyond it\n", all.size());
  }
}

uint64_t LogicalBytes(const Mistique& engine) {
  uint64_t bytes = 0;
  for (ModelId id = 1;; ++id) {
    auto model = engine.metadata().GetModel(id);
    if (!model.ok()) break;
    for (const IntermediateInfo& interm : (*model)->intermediates) {
      bytes += interm.num_rows * interm.columns.size() * 8;
    }
  }
  return bytes;
}

double StoredPerLogical(const std::vector<Mistique*>& engines,
                        const std::vector<std::string>& dirs,
                        uint64_t logical_bytes) {
  uint64_t dir_bytes = 0;
  for (size_t i = 0; i < engines.size(); ++i) {
    dir_bytes += DirBytes(dirs[i]);
    // The engine's partition accounting must match the partition files on
    // disk: each file is its payload plus a fixed-size envelope header.
    auto [file_bytes, files] = PartitionFileBytes(dirs[i]);
    uint64_t engine_bytes = engines[i]->store().stored_bytes();
    const bool corrupted = Oracles::Get().Corrupt("stored_size");
    if (corrupted) engine_bytes += 4096;
    const bool ok = engine_bytes <= file_bytes &&
                    file_bytes - engine_bytes <= files * 64 &&
                    file_bytes <= dir_bytes;
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "%s: engine %llu payload bytes vs %llu bytes in %llu "
                  "partition files", dirs[i].c_str(),
                  static_cast<unsigned long long>(engine_bytes),
                  static_cast<unsigned long long>(file_bytes),
                  static_cast<unsigned long long>(files));
    Oracles::Get().Report("stored_size", ok, corrupted, detail);
  }
  return logical_bytes == 0 ? 0
                            : static_cast<double>(dir_bytes) /
                                  static_cast<double>(logical_bytes);
}

// --------------------------------------------------------------- counters

namespace {
uint64_t CounterValue(const char* name) {
  return obs::GlobalMetrics().GetCounter(name, "")->Value();
}
}  // namespace

Counters Counters::Read() {
  Counters c;
  c.pool_hits = CounterValue("mistique_buffer_pool_hits_total");
  c.pool_loads = CounterValue("mistique_buffer_pool_loads_total");
  c.disk_read_bytes = CounterValue("mistique_disk_read_bytes_total");
  c.publishes = CounterValue("mistique_mvcc_publishes_total");
  c.packed_blocks = CounterValue("mistique_scan_packed_blocks_total");
  c.decode_blocks = CounterValue("mistique_scan_decode_blocks_total");
  return c;
}

Counters Counters::Minus(const Counters& b) const {
  Counters c;
  c.pool_hits = pool_hits - b.pool_hits;
  c.pool_loads = pool_loads - b.pool_loads;
  c.disk_read_bytes = disk_read_bytes - b.disk_read_bytes;
  c.publishes = publishes - b.publishes;
  c.packed_blocks = packed_blocks - b.packed_blocks;
  c.decode_blocks = decode_blocks - b.decode_blocks;
  return c;
}

std::vector<double> QueueWaitBuckets(QueryService* service) {
  // Cumulative bucket counts of mistique_service_queue_wait_seconds.
  std::vector<double> cumulative;
  std::istringstream text(service->MetricsText());
  const std::string prefix = "mistique_service_queue_wait_seconds_bucket{";
  std::string line;
  while (std::getline(text, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    cumulative.push_back(std::strtod(line.c_str() + line.rfind(' ') + 1,
                                     nullptr));
  }
  if (cumulative.size() != obs::Histogram::kNumBuckets) {
    Fatal("queue-wait histogram not found in MetricsText");
  }
  return cumulative;
}

double QueueWaitMedianMs(const std::vector<std::vector<double>>& before,
                         const std::vector<std::vector<double>>& after) {
  obs::Histogram::Snapshot snap;
  for (size_t s = 0; s < after.size(); ++s) {
    double prev_after = 0, prev_before = 0;
    for (size_t i = 0; i < obs::Histogram::kNumBuckets; ++i) {
      const double a = after[s][i] - prev_after;
      const double b = before[s][i] - prev_before;
      prev_after = after[s][i];
      prev_before = before[s][i];
      snap.counts[i] += static_cast<uint64_t>(a - b);
      snap.count += static_cast<uint64_t>(a - b);
    }
  }
  return snap.Quantile(0.5) * 1e3;
}

// ------------------------------------------------------------ closed loop

PhaseResult RunClosedLoop(
    size_t clients, double seconds,
    const std::function<void(size_t, uint64_t, SpanLog*,
                             std::vector<QueryRecord>*)>& round) {
  PhaseResult result;
  std::mutex merge;
  std::vector<double> overshoot;
  const double warm_deadline = Now() + kWarmupSeconds;
  const double start = warm_deadline;
  const double deadline = start + seconds;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      SpanLog* log = Tracer::Get().NewLog("client-" + std::to_string(c));
      std::vector<QueryRecord> mine;
      uint64_t r = 0;
      while (Now() < warm_deadline) round(c, r++, nullptr, &mine);
      mine.clear();
      while (Now() < deadline) round(c, r++, log, &mine);
      const double over = (Now() - deadline) * 1e3;
      std::lock_guard<std::mutex> lock(merge);
      result.queries.insert(result.queries.end(), mine.begin(), mine.end());
      overshoot.push_back(over);
    });
  }
  for (std::thread& t : threads) t.join();
  result.seconds = Now() - start;  // includes the last rounds' overshoot
  result.overshoot_ms = Median(overshoot);
  return result;
}

// ------------------------------------------------------------------ pinger

Pinger::Pinger(uint16_t port) : port_(port) {
  thread_ = std::thread([this] {
    net::ClientOptions options;
    options.port = port_;
    net::Client client(options);
    while (!stop_.load()) {
      const double t0 = Now();
      if (client.Ping().ok()) rtts_.push_back((Now() - t0) * 1e3);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
}

Pinger::~Pinger() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
}

double Pinger::StopAndMedianMs() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
  return Median(rtts_);
}

// ------------------------------------------------------------- probe stack

void ProbeStack::Start(QueryService* service, uint16_t existing_port) {
  direct_port = existing_port;
  if (direct_port == 0) {
    server = std::make_unique<net::Server>(service);
    Must(server->Start(), "probe server start");
    direct_port = server->port();
  }
  cluster::ShardSpec spec;
  spec.shard_id = 0;
  spec.port = direct_port;
  cluster::RouterOptions options;
  options.num_workers = 2;
  router = std::make_unique<cluster::Router>(cluster::ShardMap(1, {spec}),
                                             options);
  Must(router->Start(), "probe router start");
  front = std::make_unique<net::Server>(router.get());
  Must(front->Start(), "probe front start");
}

void ProbeStack::Stop() {
  if (front) front->Stop();
  if (router) router->Stop();
  if (server) server->Stop();
}

std::pair<double, double> ProbeWireAndHop(
    const std::vector<RequestTarget>& targets, uint16_t routed_port) {
  std::vector<double> local, direct, routed;
  std::map<uint16_t, std::unique_ptr<net::Client>> direct_clients;
  std::map<QueryService*, SessionId> sessions;
  net::ClientOptions routed_options;
  routed_options.port = routed_port;
  net::Client routed_client(routed_options);
  SpanLog* log = Tracer::Get().NewLog("probe-wire");
  for (int pass = 0; pass < 4; ++pass) {
    for (size_t i = 0; i < targets.size(); ++i) {
      const RequestTarget& t = targets[i];
      if (!sessions.count(t.service)) sessions[t.service] = t.service->OpenSession();
      auto& dc = direct_clients[t.direct_port];
      if (!dc) {
        net::ClientOptions o;
        o.port = t.direct_port;
        dc = std::make_unique<net::Client>(o);
      }
      // Pass 0 warms pools and connections; later passes are timed.
      double t0 = Now();
      {
        SpanScope span(log, "service.fetch", i);
        Must(t.service->Fetch(sessions[t.service], t.request), "local fetch");
      }
      double t1 = Now();
      {
        SpanScope span(log, "net.client_fetch", i);
        Must(dc->Fetch(t.request), "direct fetch");
      }
      double t2 = Now();
      {
        SpanScope span(log, "cluster.routed_fetch", i);
        Must(routed_client.Fetch(t.request), "routed fetch");
      }
      double t3 = Now();
      if (pass == 0) continue;
      local.push_back((t1 - t0) * 1e3);
      direct.push_back((t2 - t1) * 1e3);
      routed.push_back((t3 - t2) * 1e3);
    }
  }
  for (auto& [svc, id] : sessions) (void)svc->CloseSession(id);
  return {Median(direct) - Median(local), Median(routed) - Median(direct)};
}

}  // namespace diagbench
