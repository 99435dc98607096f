// Per-layer figures of a traced run and their reduction into the
// per_layer metrics of BENCHMARK.json.
#ifndef DIAGBENCH_LAYERS_H_
#define DIAGBENCH_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace diagbench {

/// What one fetch answer said about how the engine served it.
struct FetchSample {
  bool used_read = false;
  bool materialized_now = false;
  double measured_sec = 0;
  double predicted_read_sec = 0;
  double predicted_rerun_sec = 0;
};

struct LayerFigures {
  double ping_rtt_ms = 0, wire_ms = 0;
  double router_hop_ms = 0, shard_skew = 1, forward_retries = 0;
  double queue_wait_ms = 0, cache_hit_ratio = 0;
  double core_fetch_ms = 0, core_scan_ms = 0;
  double read_count = 0, rerun_count = 0, materializations = 0;
  double read_pred_ratio = 0, rerun_pred_ratio = 0, log_store_share = 0;
  double publishes = 0;
  double pool_hit_ratio = 0, disk_mb_per_query = 0, get_chunk_cold_ms = 0;
  double seal_mb_per_s = 0;
  CodecFigures lzss;
  double quantize_encode = 0, quantize_decode = 0;
  double packed_block_share = 0, packed_mvalues_per_s = 0;
  double dedup_exact_hit_ratio = 0, dedup_chunks_per_s = 0;
  DiagFigures diag;
  double nn_forward_ms = 0, pipeline_run_ms = 0;
  double wal_append_us = 0, durable_write_ms = 0;
  double lateness_ms = 0;
  double trace_overhead_pct = 0;
};

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Tracing overhead of the traced run over an untraced one, in percent of
/// the queries' total latency: the spans recorded so far times the
/// measured cost of recording one span. Call before the probes add spans.
double TraceOverheadPct(const std::vector<QueryRecord>& queries);

/// Read/re-run counts, materializations and measured-over-predicted
/// medians for the chosen strategy.
void FillFetchStats(const std::vector<FetchSample>& samples, LayerFigures* f);

/// Codec, quantizer, packed-scan kernel, cold GetChunk, seal, dedup and
/// durability probes over one engine's store and `values`.
void ProbeStorageLayers(const std::vector<mistique::Mistique*>& engines,
                        const std::string& store_dir,
                        const std::string& scratch,
                        const std::vector<double>& values, LayerFigures* f);

/// Writes every per-layer metric. Diagnostics timings come from the
/// traced queries' own spans where the mix ran that diagnostic, else from
/// the probe figures already in `f`.
void FillPerLayer(const LayerFigures& f,
                  const std::map<std::string, double>& span_self_ms,
                  RunOutput* out);

}  // namespace diagbench

#endif  // DIAGBENCH_LAYERS_H_
