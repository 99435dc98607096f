// Per-layer probes: each times calls into one module's public functions
// over the workload's own data, from outside the module.
#include <algorithm>
#include <filesystem>
#include <map>

#include "bench.h"
#include "compress/lzss.h"
#include "dedup/deduplicator.h"
#include "diagnostics/queries.h"
#include "durability/durable_file.h"
#include "durability/wal.h"
#include "nn/cifar.h"
#include "nn/model_zoo.h"
#include "pipeline/templates.h"
#include "pipeline/zillow.h"
#include "quantize/quantizer.h"
#include "scan/packed_view.h"
#include "scan/scan_kernels.h"
#include "storage/data_store.h"

namespace diagbench {

using namespace mistique;  // NOLINT: benchmark brevity.
namespace fs = std::filesystem;

namespace {

/// Repeats `body` until at least `min_seconds` passed (and at least 3
/// times); returns the median seconds per call.
template <typename F>
double MedianSeconds(double min_seconds, F&& body) {
  std::vector<double> samples;
  const double start = Now();
  while (samples.size() < 3 || Now() - start < min_seconds) {
    const double t0 = Now();
    body();
    samples.push_back(Now() - t0);
    if (samples.size() >= 1000) break;
  }
  return Median(samples);
}

/// Up to `max_partitions` partitions' worth of chunk ids, grouped.
std::map<PartitionId, std::vector<ChunkId>> ChunksByPartition(
    Mistique* engine, size_t max_partitions) {
  std::map<PartitionId, std::vector<ChunkId>> by_partition;
  for (ChunkId id : engine->store().ListChunks()) {
    auto pid = engine->store().PartitionOf(id);
    if (!pid.ok()) continue;
    if (!by_partition.count(*pid) && by_partition.size() >= max_partitions) {
      continue;
    }
    by_partition[*pid].push_back(id);
  }
  return by_partition;
}

}  // namespace

std::vector<std::vector<uint8_t>> PartitionPayloads(Mistique* engine,
                                                    size_t max_partitions) {
  std::vector<std::vector<uint8_t>> payloads;
  for (const auto& [pid, ids] : ChunksByPartition(engine, max_partitions)) {
    std::vector<uint8_t> payload;
    for (ChunkId id : ids) {
      ChunkRef ref = Must(engine->store().GetChunk(id), "payload chunk");
      payload.insert(payload.end(), ref.chunk->data().begin(),
                     ref.chunk->data().end());
    }
    payloads.push_back(std::move(payload));
  }
  return payloads;
}

CodecFigures ProbeLzss(const std::vector<std::vector<uint8_t>>& payloads) {
  LzssCodec codec;
  SpanLog* log = Tracer::Get().NewLog("probe-compress");
  double raw = 0, packed = 0, enc_s = 0, dec_s = 0;
  uint64_t i = 0;
  for (const std::vector<uint8_t>& p : payloads) {
    std::vector<uint8_t> compressed, restored;
    enc_s += MedianSeconds(0.0, [&] {
      SpanScope span(log, "compress.lzss_encode", i);
      Must(codec.Compress(p, &compressed), "lzss compress");
    });
    dec_s += MedianSeconds(0.0, [&] {
      SpanScope span(log, "compress.lzss_decode", i);
      Must(codec.Decompress(compressed, &restored), "lzss decompress");
    });
    if (restored != p) Fatal("lzss round trip changed a payload");
    raw += static_cast<double>(p.size());
    packed += static_cast<double>(compressed.size());
    ++i;
  }
  CodecFigures f;
  f.encode_mb_per_s = enc_s > 0 ? raw / 1e6 / enc_s : 0;
  f.decode_mb_per_s = dec_s > 0 ? raw / 1e6 / dec_s : 0;
  f.ratio = raw > 0 ? packed / raw : 0;
  return f;
}

std::pair<double, double> ProbeQuantize(const std::vector<double>& values) {
  KBitQuantizer quantizer(8);
  Must(quantizer.Fit(values), "quantizer fit");
  ColumnChunk chunk;
  const double enc = MedianSeconds(0.05, [&] {
    chunk = Must(quantizer.Quantize(values), "quantize");
  });
  const double dec = MedianSeconds(0.05, [&] {
    Must(chunk.DecodeAsDouble(&quantizer.reconstruction()), "dequantize");
  });
  const double mv = static_cast<double>(values.size()) / 1e6;
  return {mv / enc, mv / dec};
}

double ProbeScanKernel(Mistique* engine) {
  std::vector<ChunkRef> refs;
  std::vector<scan::PackedView> views;
  for (const auto& [pid, ids] : ChunksByPartition(engine, 16)) {
    for (ChunkId id : ids) {
      ChunkRef ref = Must(engine->store().GetChunk(id), "scan chunk");
      auto view = scan::PackedView::Of(*ref.chunk);
      if (!view) continue;
      views.push_back(*view);
      refs.push_back(std::move(ref));
    }
  }
  if (views.empty()) return 0;
  uint64_t values = 0;
  for (const scan::PackedView& v : views) values += v.n;
  std::vector<uint64_t> out;
  const double sec = MedianSeconds(0.1, [&] {
    for (const scan::PackedView& v : views) {
      out.clear();
      scan::CmpPacked(v, 192, 255, 0, &out);
    }
  });
  return static_cast<double>(values) / 1e6 / sec;
}

double ProbeColdGetChunkMs(const std::string& store_dir,
                           const std::string& copy_dir) {
  fs::remove_all(copy_dir);
  fs::create_directories(copy_dir);
  for (const auto& entry : fs::directory_iterator(store_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("part-", 0) == 0 && name.size() > 3 &&
        name.compare(name.size() - 3, 3, ".mq") == 0) {
      fs::copy_file(entry.path(), copy_dir + "/" + name);
    }
  }
  DataStore store;
  DataStoreOptions options;
  options.directory = copy_dir;
  Must(store.Open(options), "cold store open");
  Must(store.RecoverIndex(), "cold store index");
  // One chunk per partition, so every GetChunk loads a partition.
  std::map<PartitionId, ChunkId> first;
  for (ChunkId id : store.ListChunks()) {
    auto pid = store.PartitionOf(id);
    if (pid.ok() && !first.count(*pid)) first[*pid] = id;
  }
  SpanLog* log = Tracer::Get().NewLog("probe-storage");
  std::vector<double> ms;
  for (const auto& [pid, id] : first) {
    if (ms.size() >= 48) break;
    const double t0 = Now();
    {
      SpanScope span(log, "storage.get_chunk_cold", id);
      Must(store.GetChunk(id), "cold GetChunk");
    }
    ms.push_back((Now() - t0) * 1e3);
  }
  fs::remove_all(copy_dir);
  return Median(ms);
}

std::pair<double, double> ProbeSealAndDedup(Mistique* engine,
                                            const std::string& scratch_dir) {
  std::vector<ColumnChunk> chunks;
  for (const auto& [pid, ids] : ChunksByPartition(engine, 24)) {
    for (ChunkId id : ids) {
      ChunkRef ref = Must(engine->store().GetChunk(id), "seal chunk");
      chunks.push_back(*ref.chunk);
    }
  }
  fs::remove_all(scratch_dir);
  DataStore store;
  DataStoreOptions options;
  options.directory = scratch_dir;
  options.partition_target_bytes = size_t{1} << 30;  // seal only on Flush
  Must(store.Open(options), "seal store open");
  DedupOptions dedup_options = engine->options().dedup;
  const bool grouped = !chunks.empty() && chunks[0].dtype() == DType::kUInt8;
  Deduplicator dedup(&store, dedup_options);
  SpanLog* log = Tracer::Get().NewLog("probe-storage");
  uint64_t bytes = 0;
  const double t0 = Now();
  {
    SpanScope span(log, "dedup.add_chunks", 0);
    for (size_t i = 0; i < chunks.size(); ++i) {
      bytes += chunks[i].byte_size();
      Must(dedup.AddChunk(std::move(chunks[i]), grouped ? 1 + i / 512 : 0),
           "dedup add");
    }
  }
  const double t1 = Now();
  {
    SpanScope span(log, "storage.seal", 0);
    Must(store.Flush(), "seal flush");
  }
  const double t2 = Now();
  fs::remove_all(scratch_dir);
  return {static_cast<double>(bytes) / 1e6 / (t2 - t1),
          static_cast<double>(chunks.size()) / (t1 - t0)};
}

std::pair<double, double> ProbeDurability(const std::string& scratch_dir,
                                          size_t payload_bytes) {
  fs::remove_all(scratch_dir);
  fs::create_directories(scratch_dir);
  SpanLog* log = Tracer::Get().NewLog("probe-durability");
  double wal_us = 0;
  {
    WriteAheadLog wal;
    Must(wal.Open(scratch_dir + "/probe.wal", 1, 0, true), "wal open");
    const std::vector<uint8_t> record(16, 7);
    // One sample is a batch of 256 appends: a single append is far too
    // short to time on its own.
    wal_us = MedianSeconds(0.05, [&] {
      SpanScope span(log, "durability.wal_append_x256", 0);
      for (int i = 0; i < 256; ++i) {
        Must(wal.Append(1, record, /*durable=*/false), "wal append");
      }
    }) / 256 * 1e6;
  }
  std::vector<uint8_t> payload(payload_bytes);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 2654435761u >> 13);
  }
  const std::string path = scratch_dir + "/probe.mq";
  const double write_ms = MedianSeconds(0.05, [&] {
    SpanScope span(log, "durability.durable_write", 0);
    Must(WriteEnvelopeFileAtomic(path, payload, true, "diagbench"),
         "durable write");
  }) * 1e3;
  fs::remove_all(scratch_dir);
  return {wal_us, write_ms};
}

DiagFigures ProbeDiagnostics(const std::vector<std::vector<double>>& columns) {
  namespace dq = diagnostics;
  DiagFigures f;
  if (columns.empty() || columns[0].empty()) Fatal("empty diagnostics input");
  const std::vector<double>& col = columns[0];
  std::vector<double> keys(col.size());
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = static_cast<double>(i % 8);
  SpanLog* log = nullptr;  // probe timings must not mix with query spans
  f.topk_ms = MedianSeconds(0.02, [&] {
    SpanScope span(log, "diagnostics.topk", 0);
    dq::TopK(col, 10);
  }) * 1e3;
  f.knn_ms = MedianSeconds(0.02, [&] {
    SpanScope span(log, "diagnostics.knn", 0);
    dq::Knn(columns, 0, 10);
  }) * 1e3;
  f.vis_ms = MedianSeconds(0.02, [&] {
    SpanScope span(log, "diagnostics.vis", 0);
    dq::MeanPerColumn(columns);
  }) * 1e3;
  f.hist_ms = MedianSeconds(0.02, [&] {
    SpanScope span(log, "diagnostics.hist", 0);
    dq::ComputeHistogram(col, 32);
  }) * 1e3;
  f.group_mean_ms = MedianSeconds(0.02, [&] {
    SpanScope span(log, "diagnostics.group_mean", 0);
    dq::GroupedMeans(col, keys);
  }) * 1e3;
  return f;
}

double ProbeNnForwardMs(uint64_t seed, int n) {
  CifarConfig config;
  config.num_examples = n;
  config.seed = seed;
  const CifarData data = GenerateCifar(config);
  auto net = BuildCifarCnn({});
  SpanLog* log = Tracer::Get().NewLog("probe-nn");
  return MedianSeconds(0.0, [&] {
    SpanScope span(log, "nn.forward", 0);
    Must(net->ForwardBatched(data.images, 64), "cnn forward");
  }) * 1e3;
}

double ProbePipelineRunMs(uint64_t seed, const std::string& dir,
                          size_t properties) {
  ZillowConfig config;
  config.num_properties = properties;
  config.num_train = properties * 3 / 4;
  config.num_test = properties / 4;
  config.seed = seed;
  Must(WriteZillowCsvs(GenerateZillow(config), dir), "probe csvs");
  auto pipeline = Must(BuildZillowPipeline(7, 0, dir), "probe pipeline");
  PipelineContext fit;
  Must(pipeline->Run(&fit), "probe pipeline fit");
  SpanLog* log = Tracer::Get().NewLog("probe-pipeline");
  const double ms = MedianSeconds(0.0, [&] {
    SpanScope span(log, "pipeline.run", 0);
    PipelineContext ctx;
    Must(pipeline->Run(&ctx), "probe pipeline run");
  }) * 1e3;
  fs::remove_all(dir);
  return ms;
}

}  // namespace diagbench
