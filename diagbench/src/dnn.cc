// dnn-cold-routed: CIFAR VGG16-shaped network and CNN at several
// checkpoints, KBIT_QT 8-bit, each checkpoint logged straight into the
// shard the ShardMap assigns it; three shard servers behind a Router;
// four closed-loop clients; buffer pools far smaller than each shard's
// sealed partitions, and distinct row/column choices per request so the
// session cache does not hit.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <numeric>

#include "bench.h"
#include "cluster/shard_map.h"
#include "diagnostics/queries.h"
#include "layers.h"
#include "nn/cifar.h"
#include "nn/model_zoo.h"

namespace diagbench {

using namespace mistique;  // NOLINT: benchmark brevity.
namespace fs = std::filesystem;
namespace dq = diagnostics;

namespace {

constexpr size_t kShards = 3;
constexpr int kExamples = 128;
constexpr uint64_t kRowBlock = 128;
constexpr int kCheckpoints = 3;
// Each shard holds 6-28 MB of sealed partitions; its pool holds two.
constexpr size_t kPoolBytes = size_t{1} << 20;  // per shard
constexpr size_t kPartitionBytes = size_t{512} << 10;
constexpr size_t kClients = 4;
constexpr int kSetupReps = 3;
constexpr size_t kVisRows = 32;
constexpr size_t kKnnRows = 96;

/// Which layers each query kind targets. On all of them reading the stored
/// activations beats re-running the forward pass by a wide margin. VIS
/// reads a 4096-column layer (a whole partition), so it is the slowest
/// kind by a wide gap and the p99 falls inside its own spread rather than
/// on the scheduler's tail under the light kinds.
struct ModelSpec {
  const char* family;
  std::vector<int> column_layers;  // POINTQ, TOPK, COL_DIST
  std::vector<int> vis_layers;
  std::vector<int> knn_layers;
};
const ModelSpec kVgg = {"vgg", {5, 7, 8, 9, 11, 12}, {4, 5}, {14, 15, 16, 17}};
const ModelSpec kCnn = {"cnn", {4, 5}, {4, 5}, {7}};

std::unique_ptr<Network> BuildCheckpoint(bool vgg, int ckpt, uint64_t seed) {
  DnnScaleConfig scale;
  scale.cnn_scale = 0.25;
  auto net = vgg ? BuildVgg16Cifar(scale) : BuildCifarCnn(scale);
  if (ckpt > 0) {
    net->PerturbTrainable(seed * 1000 + static_cast<uint64_t>(ckpt) * 17 +
                              (vgg ? 1 : 2),
                          0.05 / ckpt);
  }
  return net;
}

struct Checkpoint {
  std::string model;  // e.g. "vgg_c1"
  const ModelSpec* spec = nullptr;
  int ckpt = 0;
  size_t shard = 0;
  std::unique_ptr<Network> net;
};

/// A query target resolved against the catalog at set-up.
struct Target {
  size_t ckpt = 0;  // index into Cluster::ckpts
  int layer = 0;
  size_t columns = 0;
  double scan_hi = 0;  // POINTQ threshold: the lower-quartile bin center
};

/// The served cluster. Networks are declared first so they outlive the
/// engines that re-run them.
struct Cluster {
  std::vector<Checkpoint> ckpts;
  std::shared_ptr<Tensor> input;
  std::vector<std::string> dirs;
  std::vector<std::unique_ptr<Mistique>> shards;
  std::vector<std::unique_ptr<QueryService>> services;
  std::vector<std::unique_ptr<net::Server>> servers;
  std::unique_ptr<cluster::Router> router;
  std::unique_ptr<net::Server> front;
  double log_seconds = 0;

  ~Cluster() {
    if (front) front->Stop();
    if (router) router->Stop();
    for (auto& s : servers) s->Stop();
    servers.clear();
    services.clear();
    shards.clear();
  }
};

std::unique_ptr<Cluster> SetUp(const Args& args, const std::string& dir) {
  fs::remove_all(dir);
  auto c = std::make_unique<Cluster>();
  CifarConfig data_config;
  data_config.num_examples = kExamples;
  data_config.seed = args.seed;
  c->input = std::make_shared<Tensor>(GenerateCifar(data_config).images);

  std::vector<cluster::ShardSpec> specs(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    specs[s].shard_id = static_cast<uint32_t>(s);
    MistiqueOptions options;
    options.store.directory = dir + "/shard" + std::to_string(s);
    options.store.memory_budget_bytes = kPoolBytes;
    options.store.partition_target_bytes = kPartitionBytes;
    // STORE_ALL keeps each layer's chunks in consecutive partitions. Under
    // DEDUP, chunks that quantize alike across checkpoints resolve into
    // older partitions, so how many partitions a query loads (2 to 13 for
    // one 1024-column layer) depends on the seed, and so does the p99.
    options.strategy = StorageStrategy::kStoreAll;
    options.dnn_scheme = QuantScheme::kKBit;
    options.kbits = 8;
    options.row_block_size = kRowBlock;
    c->dirs.push_back(options.store.directory);
    c->shards.push_back(std::make_unique<Mistique>());
    Must(c->shards.back()->Open(options), "open shard");
  }
  const cluster::ShardMap map(1, specs);
  for (const ModelSpec* spec : {&kVgg, &kCnn}) {
    for (int k = 0; k < kCheckpoints; ++k) {
      Checkpoint ck;
      ck.model = std::string(spec->family) + "_c" + std::to_string(k);
      ck.spec = spec;
      ck.ckpt = k;
      ck.shard = map.OwnerIndex(cluster::ShardMap::PartitionKey("cifar", ck.model));
      ck.net = BuildCheckpoint(spec == &kVgg, k, args.seed);
      const double t0 = Now();
      Must(c->shards[ck.shard]->LogNetwork(ck.net.get(), c->input, "cifar",
                                           ck.model),
           "LogNetwork");
      c->log_seconds += Now() - t0;
      c->ckpts.push_back(std::move(ck));
    }
  }
  for (auto& shard : c->shards) Must(shard->Flush(), "flush shard");

  std::vector<cluster::ShardSpec> live;
  for (size_t s = 0; s < kShards; ++s) {
    QueryServiceOptions service_options;
    service_options.num_workers = 4;
    service_options.max_queue = 0;
    service_options.node_name = "shard" + std::to_string(s);
    c->services.push_back(
        std::make_unique<QueryService>(c->shards[s].get(), service_options));
    c->servers.push_back(std::make_unique<net::Server>(c->services[s].get()));
    Must(c->servers[s]->Start(), "shard server start");
    cluster::ShardSpec spec = specs[s];
    spec.port = c->servers[s]->port();
    live.push_back(spec);
  }
  cluster::RouterOptions router_options;
  router_options.num_workers = 8;
  router_options.max_idle_clients_per_shard = 16;
  c->router = std::make_unique<cluster::Router>(cluster::ShardMap(1, live),
                                                router_options);
  Must(c->router->Start(), "router start");
  c->front = std::make_unique<net::Server>(c->router.get());
  Must(c->front->Start(), "front start");
  return c;
}

/// One sent request, kept for the after-phase oracles.
struct Sent {
  Kind kind = Kind::kTopK;
  size_t owner = 0;
  FetchRequest fetch;
  ScanRequest scan;
  uint64_t digest = 0;
  std::vector<uint64_t> scan_rows;  // routed POINTQ answer
  bool used_read = false;
  double measured_sec = 0, predicted_read = 0, predicted_rerun = 0;
};

std::vector<uint64_t> SampleRows(Rng* rng, size_t n) {
  std::vector<uint64_t> all(kExamples);
  std::iota(all.begin(), all.end(), 0);
  std::shuffle(all.begin(), all.end(), *rng);
  all.resize(n);
  std::sort(all.begin(), all.end());
  return all;
}

/// The per-client round: 20 queries, POINTQ 25%, TOPK 25%, COL_DIST 25%,
/// KNN 20%, VIS 5%, in a seeded order. With VIS at 5%, the p99 is VIS's
/// 80th percentile.
std::vector<Kind> RoundKinds(Rng* rng) {
  std::vector<Kind> kinds;
  for (int i = 0; i < 5; ++i) kinds.push_back(Kind::kPointQ);
  for (int i = 0; i < 5; ++i) kinds.push_back(Kind::kTopK);
  for (int i = 0; i < 5; ++i) kinds.push_back(Kind::kColDist);
  for (int i = 0; i < 4; ++i) kinds.push_back(Kind::kKnn);
  kinds.push_back(Kind::kVis);
  std::shuffle(kinds.begin(), kinds.end(), *rng);
  return kinds;
}

}  // namespace

void RunDnnColdRouted(const Args& args, RunOutput* out) {
  const std::string root = args.work_dir + "/dnn-cold-routed";
  SetupStats setup;
  std::unique_ptr<Cluster> cluster;
  const int reps = args.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    cluster.reset();
    const double t0 = Now();
    cluster = SetUp(args, root + "/rep" + std::to_string(rep));
    setup.setup_s.push_back(Now() - t0);
    uint64_t logical = 0;
    for (auto& shard : cluster->shards) logical += LogicalBytes(*shard);
    setup.ingest_mb_per_s.push_back(logical / 1e6 / cluster->log_seconds);
    if (rep + 1 < reps) fs::remove_all(root + "/rep" + std::to_string(rep));
  }
  Cluster& c = *cluster;

  // Resolve targets against the owning shard's catalog.
  std::vector<Target> column_targets, vis_targets, knn_targets;
  for (size_t i = 0; i < c.ckpts.size(); ++i) {
    const Checkpoint& ck = c.ckpts[i];
    Mistique& shard = *c.shards[ck.shard];
    const ModelId id = Must(shard.metadata().FindModel("cifar", ck.model), "model");
    auto resolve = [&](int layer) {
      const IntermediateInfo* interm = Must(
          std::as_const(shard.metadata()).FindIntermediate(id, "layer" + std::to_string(layer)),
          "layer");
      Target t;
      t.ckpt = i;
      t.layer = layer;
      t.columns = interm->columns.size();
      // "activation <= x" with x a low bin center: every column's zone map
      // overlaps it, so no scan is pruned without reading its partition.
      t.scan_hi = interm->recon.centers.empty() ? 0 : interm->recon.centers[64];
      return t;
    };
    for (int l : ck.spec->column_layers) column_targets.push_back(resolve(l));
    for (int l : ck.spec->vis_layers) vis_targets.push_back(resolve(l));
    for (int l : ck.spec->knn_layers) knn_targets.push_back(resolve(l));
  }

  auto fetch_for = [&](const Target& t) {
    FetchRequest req;
    req.project = "cifar";
    req.model = c.ckpts[t.ckpt].model;
    req.intermediate = "layer" + std::to_string(t.layer);
    return req;
  };

  std::vector<std::vector<Sent>> sent(kClients);
  std::vector<std::unique_ptr<net::Client>> clients;
  for (size_t i = 0; i < kClients; ++i) {
    net::ClientOptions options;
    options.port = c.front->port();
    clients.push_back(std::make_unique<net::Client>(options));
    Must(clients.back()->Ping(), "client connect");
  }
  std::vector<Rng> rngs;
  for (size_t i = 0; i < kClients; ++i) rngs.emplace_back(args.seed * 7919 + i);

  auto round = [&](size_t ci, uint64_t r, SpanLog* log,
                   std::vector<QueryRecord>* records) {
    Rng& rng = rngs[ci];
    net::Client& client = *clients[ci];
    for (Kind kind : RoundKinds(&rng)) {
      Sent s;
      s.kind = kind;
      const uint64_t id = (ci << 40) | (r << 8) | sent[ci].size() % 256;
      const std::vector<Target>& pool =
          kind == Kind::kVis ? vis_targets
                             : kind == Kind::kKnn ? knn_targets : column_targets;
      const Target& t = pool[Pick(&rng, pool.size())];
      s.owner = c.ckpts[t.ckpt].shard;
      const std::string col = "n" + std::to_string(Pick(&rng, t.columns));
      if (kind == Kind::kPointQ) {
        s.scan.project = "cifar";
        s.scan.model = c.ckpts[t.ckpt].model;
        s.scan.intermediate = "layer" + std::to_string(t.layer);
        s.scan.predicate_column = col;
        s.scan.hi = t.scan_hi;
      } else {
        s.fetch = fetch_for(t);
        if (kind == Kind::kTopK || kind == Kind::kColDist) {
          s.fetch.columns = {col};
        } else {
          s.fetch.row_ids = SampleRows(&rng, kind == Kind::kVis ? kVisRows : kKnnRows);
        }
      }
      const double t0 = Now();
      FetchResult fr;
      ScanResult sr;
      {
        SpanScope q(log, KindName(kind), id);
        if (kind == Kind::kPointQ) {
          SpanScope span(log, "net.client_scan", id);
          sr = Must(client.Scan(s.scan), "routed scan");
        } else {
          {
            SpanScope span(log, "net.client_fetch", id);
            fr = Must(client.Fetch(s.fetch), "routed fetch");
          }
          RunDiagnostic(kind, fr, ci % std::max<size_t>(1, fr.row_ids.size()),
                        log, id);
        }
      }
      const double done = Now();
      records->push_back({kind, (done - t0) * 1e3, done});
      if (kind == Kind::kPointQ) {
        s.digest = DigestScan(sr);
        s.scan_rows = std::move(sr.row_ids);
      } else {
        s.digest = DigestFetch(fr);
        s.used_read = fr.used_read;
        s.measured_sec = fr.fetch_seconds;
        s.predicted_read = fr.predicted_read_sec;
        s.predicted_rerun = fr.predicted_rerun_sec;
        // Property oracles on the answer itself.
        if (kind == Kind::kTopK) CheckTopK(fr.columns[0], 10);
        if (kind == Kind::kColDist) CheckHistogram(fr.columns[0], 32);
        if (kind == Kind::kKnn) CheckKnn(fr.columns, ci % fr.row_ids.size(), 5);
      }
      sent[ci].push_back(std::move(s));
    }
  };

  auto stats_before = std::vector<ServiceStats>();
  std::vector<std::vector<double>> qw_before;
  for (auto& svc : c.services) {
    stats_before.push_back(svc->Stats());
    qw_before.push_back(QueueWaitBuckets(svc.get()));
  }
  const cluster::RouterStats router_before = c.router->Stats();
  const Counters counters_before = Counters::Read();

  std::unique_ptr<Pinger> pinger;
  if (args.trace) {
    Tracer::Get().Enable(true);
    pinger = std::make_unique<Pinger>(c.front->port());
  }
  const PhaseResult phase = RunClosedLoop(kClients, args.seconds, round);
  const double ping_ms = pinger ? pinger->StopAndMedianMs() : 0;
  const double trace_overhead_pct = TraceOverheadPct(phase.queries);
  const Counters counters = Counters::Read().Minus(counters_before);
  const cluster::RouterStats router_after = c.router->Stats();
  std::vector<std::vector<double>> qw_after;
  std::vector<double> shard_queries;
  double cache_hits = 0, cache_lookups = 0;
  for (size_t s = 0; s < kShards; ++s) {
    const ServiceStats st = c.services[s]->Stats();
    qw_after.push_back(QueueWaitBuckets(c.services[s].get()));
    shard_queries.push_back(static_cast<double>(st.submitted - stats_before[s].submitted));
    cache_hits += static_cast<double>(st.cache_hits - stats_before[s].cache_hits);
    cache_lookups += static_cast<double>(st.cache_lookups - stats_before[s].cache_lookups);
  }

  std::mutex local_mutex;
  std::vector<double> local_fetch_ms, local_scan_ms;
  // Oracles over every answer: the routed answer equals the owning
  // shard's in-process answer byte for byte, and each POINTQ row set
  // equals this benchmark's own filter of the decode-path fetch.
  {
    std::vector<std::thread> checkers;
    for (size_t ci = 0; ci < kClients; ++ci) {
      checkers.emplace_back([&, ci] {
        SpanLog* log = Tracer::Get().NewLog("oracle-" + std::to_string(ci));
        const std::vector<Sent>& mine = sent[ci];
        for (size_t i = 0; i < mine.size(); ++i) {
          const Sent& s = mine[i];
          Mistique& shard = *c.shards[s.owner];
          // Self-check: compare against the answer to a different request,
          // as if a shard had returned someone else's result.
          const bool swap = Oracles::Get().Corrupt("routed_identical");
          const Sent& ref = swap ? mine[(i + 1) % mine.size()] : s;
          uint64_t local = 0;
          const double t0 = Now();
          if (ref.kind == Kind::kPointQ) {
            SpanScope span(log, "core.scan", i);
            local = DigestScan(Must(c.shards[ref.owner]->Scan(ref.scan), "local scan"));
          } else {
            SpanScope span(log, "core.fetch", i);
            local = DigestFetch(Must(c.shards[ref.owner]->Fetch(ref.fetch), "local fetch"));
          }
          {
            std::lock_guard<std::mutex> lock(local_mutex);
            (ref.kind == Kind::kPointQ ? local_scan_ms : local_fetch_ms)
                .push_back((Now() - t0) * 1e3);
          }
          Oracles::Get().Report("routed_identical", local == s.digest, swap,
                                "routed answer differs from the owning shard's");
          if (s.kind != Kind::kPointQ) continue;
          FetchRequest col;
          col.project = s.scan.project;
          col.model = s.scan.model;
          col.intermediate = s.scan.intermediate;
          col.columns = {s.scan.predicate_column};
          const FetchResult values = Must(shard.Fetch(col), "decode fetch");
          std::vector<uint64_t> expect;
          for (size_t r = 0; r < values.columns[0].size(); ++r) {
            const double v = values.columns[0][r];
            if (v >= s.scan.lo && v <= s.scan.hi) expect.push_back(values.row_ids[r]);
          }
          std::vector<uint64_t> got = s.scan_rows;
          const bool drop = Oracles::Get().Corrupt("scan_rows");
          if (drop && !got.empty()) got.pop_back();
          if (drop && got.empty()) got.push_back(kExamples);
          Oracles::Get().Report("scan_rows", got == expect, drop,
                                "scan rows differ from the filtered decode-path fetch");
        }
      });
    }
    for (std::thread& t : checkers) t.join();
  }

  // KBIT values lie within their quantization bin of activations this
  // benchmark computes by running each checkpoint's network itself.
  std::vector<double> forward_ms;
  std::vector<double> activations;  // raw values for the quantize probe
  const int check_rows = 32;
  Tensor head(check_rows, c.input->c, c.input->h, c.input->w);
  std::copy(c.input->data.begin(),
            c.input->data.begin() + static_cast<ptrdiff_t>(head.data.size()),
            head.data.begin());
  for (const Checkpoint& ck : c.ckpts) {
    auto oracle_net = BuildCheckpoint(ck.spec == &kVgg, ck.ckpt, args.seed);
    std::map<int, Tensor> acts;
    std::vector<int> layers = ck.spec->column_layers;
    layers.insert(layers.end(), ck.spec->vis_layers.begin(), ck.spec->vis_layers.end());
    layers.insert(layers.end(), ck.spec->knn_layers.begin(), ck.spec->knn_layers.end());
    Must(oracle_net->Forward(head, 0,
                             [&](int layer, const std::string&, const Tensor& t) {
                               if (std::count(layers.begin(), layers.end(), layer)) {
                                 acts[layer] = t;
                               }
                               return Status::OK();
                             }),
         "oracle forward");
    Mistique& shard = *c.shards[ck.shard];
    const ModelId id = Must(shard.metadata().FindModel("cifar", ck.model), "model");
    if (activations.empty() && !acts.empty()) {
      const Tensor& t = acts.begin()->second;
      activations.assign(t.data.begin(), t.data.end());
    }
    for (const auto& [layer, t] : acts) {
      const IntermediateInfo* interm = Must(
          std::as_const(shard.metadata()).FindIntermediate(id, "layer" + std::to_string(layer)),
          "layer");
      FetchRequest req;
      req.project = "cifar";
      req.model = ck.model;
      req.intermediate = interm->name;
      req.n_ex = check_rows;
      FetchResult r = Must(shard.Fetch(req), "kbit fetch");
      const bool flip = Oracles::Get().Corrupt("kbit_bin");
      if (flip) {
        double& v = r.columns[0][0];
        v = (v == interm->recon.centers.back()) ? interm->recon.centers.front()
                                                : interm->recon.centers.back();
      }
      const auto& centers = interm->recon.centers;
      const auto& edges = interm->edges;
      bool ok = r.columns.size() == t.PerExample();
      std::string detail;
      for (size_t col = 0; ok && col < r.columns.size(); ++col) {
        for (int ex = 0; ok && ex < check_rows; ++ex) {
          const double got = r.columns[col][static_cast<size_t>(ex)];
          const double truth = t.Example(ex)[col];
          // Bins sharing this center span [lo, hi]; allow float slack.
          size_t first = centers.size(), last = 0;
          for (size_t b = 0; b < centers.size(); ++b) {
            if (centers[b] == got) {
              first = std::min(first, b);
              last = b;
            }
          }
          if (first == centers.size()) {
            ok = false;
            detail = "value is not a bin center";
            break;
          }
          const double lo = first == 0 ? -INFINITY : edges[first - 1];
          const double hi = last >= edges.size() ? INFINITY : edges[last];
          const double slack = 1e-5 * (1 + std::fabs(truth));
          if (truth < lo - slack || truth > hi + slack) {
            ok = false;
            char buf[160];
            std::snprintf(buf, sizeof(buf), "%s %s n%zu row %d: %g outside [%g, %g]",
                          ck.model.c_str(), interm->name.c_str(), col, ex, truth, lo, hi);
            detail = buf;
          }
        }
      }
      Oracles::Get().Report("kbit_bin", ok, flip, detail);
    }
    if (args.trace) {
      SpanLog* log = Tracer::Get().NewLog("probe-nn");
      const double t0 = Now();
      {
        SpanScope span(log, "nn.forward", 0);
        Must(oracle_net->ForwardBatched(*c.input, static_cast<int>(kRowBlock)),
             "forward probe");
      }
      forward_ms.push_back((Now() - t0) * 1e3);
    }
  }

  out->attempted = phase.queries.size();
  out->failed = 0;

  std::vector<Mistique*> engines;
  for (auto& s : c.shards) engines.push_back(s.get());
  uint64_t logical = 0;
  for (auto* e : engines) logical += LogicalBytes(*e);
  const double spl = StoredPerLogical(engines, c.dirs, logical);

  if (!args.trace) {
    FillEndToEnd(setup, phase.queries, phase.seconds, spl, out);
  } else {
    LayerFigures f;
    f.ping_rtt_ms = ping_ms;
    f.trace_overhead_pct = trace_overhead_pct;
    // Warm requests for the wire/hop probe: 48 distinct single-column
    // fetches (more than the 32-entry session cache) on a small layer.
    std::vector<RequestTarget> targets;
    for (size_t i = 0; i < 48; ++i) {
      const Target& t = knn_targets[i % knn_targets.size()];
      RequestTarget rt;
      rt.request = fetch_for(t);
      rt.request.columns = {"n" + std::to_string(i % t.columns)};
      rt.service = c.services[c.ckpts[t.ckpt].shard].get();
      rt.direct_port = c.servers[c.ckpts[t.ckpt].shard]->port();
      targets.push_back(rt);
    }
    std::tie(f.wire_ms, f.router_hop_ms) = ProbeWireAndHop(targets, c.front->port());
    f.shard_skew = *std::max_element(shard_queries.begin(), shard_queries.end()) /
                   (std::accumulate(shard_queries.begin(), shard_queries.end(), 0.0) /
                    kShards);
    f.forward_retries = static_cast<double>(router_after.retries - router_before.retries);
    f.queue_wait_ms = QueueWaitMedianMs(qw_before, qw_after);
    f.cache_hit_ratio = cache_lookups > 0 ? cache_hits / cache_lookups : 0;
    std::vector<FetchSample> samples;
    FetchResult knn_answer;
    for (const auto& mine : sent) {
      for (const Sent& s : mine) {
        if (s.kind == Kind::kPointQ) continue;
        samples.push_back({s.used_read, false, s.measured_sec, s.predicted_read,
                           s.predicted_rerun});
      }
    }
    FillFetchStats(samples, &f);
    f.core_fetch_ms = Median(local_fetch_ms);
    f.core_scan_ms = Median(local_scan_ms);
    f.publishes = static_cast<double>(counters.publishes);
    f.pool_hit_ratio = Ratio(counters.pool_hits, counters.pool_hits + counters.pool_loads);
    f.disk_mb_per_query = counters.disk_read_bytes / 1e6 /
                          static_cast<double>(std::max<size_t>(1, phase.queries.size()));
    f.packed_block_share = Ratio(counters.packed_blocks, counters.packed_blocks + counters.decode_blocks);
    f.nn_forward_ms = std::accumulate(forward_ms.begin(), forward_ms.end(), 0.0);
    ProbeStorageLayers(engines, c.dirs[0], root, activations, &f);
    {
      FetchRequest req = fetch_for(knn_targets[0]);
      f.diag = ProbeDiagnostics(Must(c.shards[c.ckpts[knn_targets[0].ckpt].shard]->Fetch(req),
                                     "diagnostics probe fetch").columns);
    }
    // Logging time not spent in the forward pass itself.
    f.log_store_share = 1.0 - std::accumulate(forward_ms.begin(), forward_ms.end(), 0.0) /
                                  1e3 / c.log_seconds;
    f.pipeline_run_ms = ProbePipelineRunMs(args.seed, root + "/probe-pipeline", 2000);
    f.lateness_ms = phase.overshoot_ms;
    FillPerLayer(f, Tracer::Get().MedianSelfMs(), out);
    Tracer::Get().WriteChromeJson(args.work_dir + "/trace-dnn-cold-routed-" +
                                  std::to_string(args.seed) + ".json");
  }
  cluster.reset();
  fs::remove_all(root);
}

}  // namespace diagbench
