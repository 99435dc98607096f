// Workload entry points and the helpers they share: query bookkeeping,
// end-to-end metric assembly, exported-counter snapshots and the
// per-layer probes that call each module's public functions.
#ifndef DIAGBENCH_BENCH_H_
#define DIAGBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.h"
#include "common.h"
#include "core/mistique.h"
#include "net/client.h"
#include "net/server.h"
#include "service/query_service.h"
#include "storage/column_chunk.h"

namespace diagbench {

/// The paper's diagnosis query kinds (Table 5) used by the mixes.
enum class Kind { kPointQ, kTopK, kColDiff, kColDist, kKnn, kRowDiff, kVis };
const char* KindName(Kind kind);
/// POINTQ is answered by a predicate scan; every other kind by fetches.
inline bool IsScan(Kind kind) { return kind == Kind::kPointQ; }

/// One completed query as the client saw it.
struct QueryRecord {
  Kind kind = Kind::kTopK;
  double latency_ms = 0;
  double done = 0;  ///< completion time (Now())
};

/// Computes the diagnostic of `kind` on a fetched answer inside a span
/// named after it (part of the query's timed work).
void RunDiagnostic(Kind kind, const mistique::FetchResult& r, size_t knn_query,
                   SpanLog* log, uint64_t id);

/// Property oracles computed apart from the program: TOPK equals a full
/// sort, histogram counts sum to the (non-NaN) row count, KNN equals brute
/// force.
void CheckTopK(const std::vector<double>& col, size_t k);
void CheckHistogram(const std::vector<double>& col, int bins);
void CheckKnn(const std::vector<std::vector<double>>& cols, size_t query,
              size_t k);

/// What set-up cost, one entry per set-up repetition: seconds from an empty
/// directory to ready to serve, and logical bytes (rows x columns x 8,
/// before quantization, dedup and compression) per second spent inside
/// LogNetwork/LogPipeline.
struct SetupStats {
  std::vector<double> setup_s;
  std::vector<double> ingest_mb_per_s;
};

/// Fills every end-to-end metric. query_p99_ms is the median, over
/// consecutive windows of 1000 completed queries (one window when the run
/// has fewer than 2000), of each window's p99: every window has 10 samples
/// beyond its p99, and one burst of host noise moves one window only.
void FillEndToEnd(const SetupStats& setup,
                  const std::vector<QueryRecord>& queries,
                  double phase_seconds, double stored_per_logical,
                  RunOutput* out);

/// Logical bytes of every intermediate the engine's catalog knows.
uint64_t LogicalBytes(const mistique::Mistique& engine);

/// stored_per_logical for a set of store directories, checked against the
/// engines' own partition accounting (oracle "stored_size").
double StoredPerLogical(const std::vector<mistique::Mistique*>& engines,
                        const std::vector<std::string>& dirs,
                        uint64_t logical_bytes);

/// Process-global counters exported through the mistique_* registry.
struct Counters {
  uint64_t pool_hits = 0;
  uint64_t pool_loads = 0;
  uint64_t disk_read_bytes = 0;
  uint64_t publishes = 0;
  uint64_t packed_blocks = 0;
  uint64_t decode_blocks = 0;
  static Counters Read();
  Counters Minus(const Counters& base) const;
};

/// Cumulative bucket counts of a QueryService's queue-wait histogram,
/// parsed from MetricsText; the median (ms) of the samples added between
/// two such readings, summed over services.
std::vector<double> QueueWaitBuckets(mistique::QueryService* service);
double QueueWaitMedianMs(const std::vector<std::vector<double>>& before,
                         const std::vector<std::vector<double>>& after);

/// Closed-loop load: `clients` threads each run `round` (one whole round
/// of queries, returning their records) for kWarmupSeconds, discarding
/// those records (connections, thread pools and allocator arenas settle),
/// then until `seconds` more have passed, always finishing the round they
/// are in. Returns the measured records and the phase length;
/// `overshoot_ms` is how far past the deadline the last round ended
/// (median over clients).
constexpr double kWarmupSeconds = 1.5;
struct PhaseResult {
  std::vector<QueryRecord> queries;
  double seconds = 0;
  double overshoot_ms = 0;
};
PhaseResult RunClosedLoop(
    size_t clients, double seconds,
    const std::function<void(size_t client, uint64_t round, SpanLog* log,
                             std::vector<QueryRecord>* out)>& round);

/// Background pinger for net.ping_rtt_ms: pings `port` every 20 ms until
/// stopped and reports the median round trip.
class Pinger {
 public:
  explicit Pinger(uint16_t port);
  ~Pinger();
  Pinger(const Pinger&) = delete;
  Pinger& operator=(const Pinger&) = delete;
  double StopAndMedianMs();

 private:
  uint16_t port_;
  std::atomic<bool> stop_{false};
  std::vector<double> rtts_;
  std::thread thread_;
};

/// Front-end stack for probes on workloads that serve in-process or from
/// one server: a TCP server over the service and a one-shard router.
struct ProbeStack {
  std::unique_ptr<mistique::net::Server> server;
  std::unique_ptr<mistique::cluster::Router> router;
  std::unique_ptr<mistique::net::Server> front;
  void Start(mistique::QueryService* service, uint16_t existing_port);
  void Stop();
  uint16_t direct_port = 0;
};

/// Times the same warm fetch requests in-process (QueryService), direct
/// over TCP and through a router; `requests` should outnumber the session
/// cache so none is a cache hit. Returns {wire_ms, router_hop_ms}.
struct RequestTarget {
  mistique::FetchRequest request;
  mistique::QueryService* service = nullptr;
  uint16_t direct_port = 0;
};
std::pair<double, double> ProbeWireAndHop(
    const std::vector<RequestTarget>& targets, uint16_t routed_port);

/// Per-layer probes over the workload's own data.
struct CodecFigures {
  double encode_mb_per_s = 0;
  double decode_mb_per_s = 0;
  double ratio = 0;
};
/// Partition-like payloads: the encoded bytes of the store's chunks,
/// concatenated per partition (at most `max_partitions`).
std::vector<std::vector<uint8_t>> PartitionPayloads(mistique::Mistique* engine,
                                                    size_t max_partitions);
CodecFigures ProbeLzss(const std::vector<std::vector<uint8_t>>& payloads);
/// KBIT_QT 8-bit encode/decode throughput over `values`.
std::pair<double, double> ProbeQuantize(const std::vector<double>& values);
/// scan::CmpPacked throughput over the store's packed chunks (0 when the
/// store holds none).
double ProbeScanKernel(mistique::Mistique* engine);
/// DataStore::GetChunk on a freshly reopened copy of `store_dir`.
double ProbeColdGetChunkMs(const std::string& store_dir,
                           const std::string& copy_dir);
/// Seal (serialize + LZSS + CRC + durable write) and dedup throughput of
/// the store's own chunks written into a scratch DataStore.
std::pair<double, double> ProbeSealAndDedup(mistique::Mistique* engine,
                                            const std::string& scratch_dir);
/// Non-durable WAL append (us) and durable partition-sized write (ms).
std::pair<double, double> ProbeDurability(const std::string& scratch_dir,
                                          size_t payload_bytes);
/// Diagnostics compute over a fetched matrix (column-major).
struct DiagFigures {
  double topk_ms = 0, knn_ms = 0, vis_ms = 0, hist_ms = 0, group_mean_ms = 0;
};
DiagFigures ProbeDiagnostics(const std::vector<std::vector<double>>& columns);
/// Forward pass of a CIFAR CNN over `n` synthetic images (ms).
double ProbeNnForwardMs(uint64_t seed, int n);
/// Re-run of an already fitted Zillow pipeline (ms), on data in `dir`.
double ProbePipelineRunMs(uint64_t seed, const std::string& dir,
                          size_t properties);

/// Workloads. Each runs its set-up, measured phase and oracles and fills
/// `out` (end-to-end metrics untraced, per-layer metrics traced).
void RunDnnColdRouted(const Args& args, RunOutput* out);
void RunTradWarmLocal(const Args& args, RunOutput* out);
void RunAdaptiveDevLoop(const Args& args, RunOutput* out);

}  // namespace diagbench

#endif  // DIAGBENCH_BENCH_H_
