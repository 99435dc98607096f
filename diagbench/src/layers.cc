#include "layers.h"

#include <algorithm>

namespace diagbench {

using namespace mistique;  // NOLINT: benchmark brevity.

double TraceOverheadPct(const std::vector<QueryRecord>& queries) {
  double total_ms = 0;
  for (const QueryRecord& q : queries) total_ms += q.latency_ms;
  const double spans = static_cast<double>(Tracer::Get().SpanCount());
  // Cost of one span: record 100k nested pairs into a private log.
  SpanLog scratch;
  scratch.spans.reserve(200000);
  const double t0 = Now();
  for (int i = 0; i < 100000; ++i) {
    SpanScope outer(&scratch, "overhead.outer", static_cast<uint64_t>(i));
    SpanScope inner(&scratch, "overhead.inner", static_cast<uint64_t>(i));
  }
  const double per_span_ms = (Now() - t0) * 1e3 / 200000;
  return Ratio(spans * per_span_ms, total_ms) * 100.0;
}

void FillFetchStats(const std::vector<FetchSample>& samples, LayerFigures* f) {
  std::vector<double> read_ratio, rerun_ratio;
  for (const FetchSample& s : samples) {
    if (s.used_read) {
      f->read_count += 1;
      if (s.predicted_read_sec > 0) {
        read_ratio.push_back(s.measured_sec / s.predicted_read_sec);
      }
    } else {
      f->rerun_count += 1;
      if (s.predicted_rerun_sec > 0) {
        rerun_ratio.push_back(s.measured_sec / s.predicted_rerun_sec);
      }
    }
    if (s.materialized_now) f->materializations += 1;
  }
  f->read_pred_ratio = Median(read_ratio);
  f->rerun_pred_ratio = Median(rerun_ratio);
}

void ProbeStorageLayers(const std::vector<Mistique*>& engines,
                        const std::string& store_dir,
                        const std::string& scratch,
                        const std::vector<double>& values, LayerFigures* f) {
  Mistique* engine = engines[0];
  const std::vector<std::vector<uint8_t>> payloads = PartitionPayloads(engine, 8);
  f->lzss = ProbeLzss(payloads);
  std::tie(f->quantize_encode, f->quantize_decode) = ProbeQuantize(values);
  f->packed_mvalues_per_s = ProbeScanKernel(engine);
  f->get_chunk_cold_ms = ProbeColdGetChunkMs(store_dir, scratch + "/cold-copy");
  std::tie(f->seal_mb_per_s, f->dedup_chunks_per_s) =
      ProbeSealAndDedup(engine, scratch + "/seal");
  size_t payload_bytes = 0;
  for (const auto& p : payloads) payload_bytes = std::max(payload_bytes, p.size());
  std::tie(f->wal_append_us, f->durable_write_ms) =
      ProbeDurability(scratch + "/durability", std::max<size_t>(payload_bytes, 4096));
  double dup = 0, stored = 0;
  for (Mistique* e : engines) {
    dup += static_cast<double>(e->dedup().duplicate_chunks());
    stored += static_cast<double>(e->store().num_chunks());
  }
  f->dedup_exact_hit_ratio = Ratio(dup, dup + stored);
}

void FillPerLayer(const LayerFigures& f,
                  const std::map<std::string, double>& spans, RunOutput* out) {
  auto span_or = [&](const char* name, double fallback) {
    auto it = spans.find(name);
    return it == spans.end() ? fallback : it->second;
  };
  auto& m = out->per_layer;
  m["net.ping_rtt_ms"] = {f.ping_rtt_ms, "ms"};
  m["net.wire_ms"] = {f.wire_ms, "ms"};
  m["cluster.router_hop_ms"] = {f.router_hop_ms, "ms"};
  m["cluster.shard_skew"] = {f.shard_skew, "ratio"};
  m["cluster.forward_retries"] = {f.forward_retries, "count"};
  m["service.queue_wait_ms"] = {f.queue_wait_ms, "ms"};
  m["service.cache_hit_ratio"] = {f.cache_hit_ratio, "ratio"};
  m["core.fetch_ms"] = {f.core_fetch_ms, "ms"};
  m["core.scan_ms"] = {f.core_scan_ms, "ms"};
  m["core.read_count"] = {f.read_count, "count"};
  m["core.rerun_count"] = {f.rerun_count, "count"};
  m["core.materializations"] = {f.materializations, "count"};
  m["core.read_pred_ratio"] = {f.read_pred_ratio, "ratio"};
  m["core.rerun_pred_ratio"] = {f.rerun_pred_ratio, "ratio"};
  m["core.log_store_share"] = {f.log_store_share, "ratio"};
  m["mvcc.publishes"] = {f.publishes, "count"};
  m["storage.pool_hit_ratio"] = {f.pool_hit_ratio, "ratio"};
  m["storage.disk_mb_per_query"] = {f.disk_mb_per_query, "MB"};
  m["storage.get_chunk_cold_ms"] = {f.get_chunk_cold_ms, "ms"};
  m["storage.seal_mb_per_s"] = {f.seal_mb_per_s, "MB/s"};
  m["compress.lzss_decode_mb_per_s"] = {f.lzss.decode_mb_per_s, "MB/s"};
  m["compress.lzss_encode_mb_per_s"] = {f.lzss.encode_mb_per_s, "MB/s"};
  m["compress.ratio"] = {f.lzss.ratio, "ratio"};
  m["quantize.encode_mvalues_per_s"] = {f.quantize_encode, "Mvalues/s"};
  m["quantize.decode_mvalues_per_s"] = {f.quantize_decode, "Mvalues/s"};
  m["scan.packed_block_share"] = {f.packed_block_share, "ratio"};
  m["scan.packed_mvalues_per_s"] = {f.packed_mvalues_per_s, "Mvalues/s"};
  m["dedup.exact_hit_ratio"] = {f.dedup_exact_hit_ratio, "ratio"};
  m["dedup.chunks_per_s"] = {f.dedup_chunks_per_s, "1/s"};
  m["diagnostics.topk_ms"] = {span_or("diagnostics.topk", f.diag.topk_ms), "ms"};
  m["diagnostics.knn_ms"] = {span_or("diagnostics.knn", f.diag.knn_ms), "ms"};
  m["diagnostics.vis_ms"] = {span_or("diagnostics.vis", f.diag.vis_ms), "ms"};
  m["diagnostics.hist_ms"] = {span_or("diagnostics.hist", f.diag.hist_ms), "ms"};
  m["diagnostics.group_mean_ms"] = {span_or("diagnostics.group_mean", f.diag.group_mean_ms), "ms"};
  m["nn.forward_ms"] = {f.nn_forward_ms, "ms"};
  m["pipeline.run_ms"] = {f.pipeline_run_ms, "ms"};
  m["durability.wal_append_us"] = {f.wal_append_us, "us"};
  m["durability.durable_write_ms"] = {f.durable_write_ms, "ms"};
  m["load.lateness_ms"] = {f.lateness_ms, "ms"};
  m["trace.overhead_pct"] = {f.trace_overhead_pct, "%"};
}

}  // namespace diagbench
