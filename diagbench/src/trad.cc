// trad-warm-local and adaptive-dev-loop: Zillow TRAD pipelines.
//
// trad-warm-local logs pipeline variants that share prefixes under DEDUP
// at full precision into one store whose buffer pool holds all of it, and
// drives four in-process QueryService sessions (closed loop) with the TRAD
// query mix; a seeded share of requests repeats a recent one so the
// session cache is used.
//
// adaptive-dev-loop logs under ADAPTIVE with gamma_min = 0, so every
// intermediate materializes on its first query. One writer logs a new
// pipeline variant on a fixed schedule while two open-loop readers query
// one TCP server, favouring the newest pipelines.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <numeric>
#include <set>

#include "bench.h"
#include "diagnostics/queries.h"
#include "layers.h"
#include "pipeline/templates.h"
#include "pipeline/zillow.h"

namespace diagbench {

using namespace mistique;  // NOLINT: benchmark brevity.
namespace fs = std::filesystem;
namespace dq = diagnostics;

namespace {

/// Numeric property columns every template's x_all carries.
const std::vector<std::string> kNumericColumns = {
    "bathroomcnt", "bedroomcnt", "calculatedfinishedsquarefeet", "latitude",
    "longitude",   "lotsizesquarefeet", "yearbuilt",
    "structuretaxvaluedollarcnt", "landtaxvaluedollarcnt",
    "taxvaluedollarcnt", "taxamount"};
/// The subset with no missing values (KNN distances need every value).
const std::vector<std::string> kCompleteColumns = {
    "bathroomcnt", "bedroomcnt", "calculatedfinishedsquarefeet", "latitude",
    "longitude", "structuretaxvaluedollarcnt", "landtaxvaluedollarcnt",
    "taxvaluedollarcnt", "taxamount"};

struct PipelineName {
  int tmpl = 1;
  int variant = 0;
  std::string name() const {
    return "P" + std::to_string(tmpl) + "_v" + std::to_string(variant);
  }
};

void WriteCsvs(uint64_t seed, size_t properties, size_t train, size_t test,
               const std::string& dir) {
  ZillowConfig config;
  config.num_properties = properties;
  config.num_train = train;
  config.num_test = test;
  config.seed = seed;
  Must(WriteZillowCsvs(GenerateZillow(config), dir), "zillow csvs");
}

/// One logical query: the fetches (or scan) it issues and the diagnostic.
struct Query {
  Kind kind = Kind::kTopK;
  std::vector<FetchRequest> fetches;
  ScanRequest scan;
  size_t knn_query = 0;
};

/// A fetch answer reduced to what the after-phase oracles need.
struct Answered {
  FetchRequest request;
  uint64_t digest = 0;
  FetchSample sample;
};

struct ScanAnswered {
  ScanRequest request;
  std::vector<uint64_t> rows;
};

/// Per-client answers, merged after the phase.
struct AnswerLog {
  std::vector<Answered> fetches;
  std::vector<ScanAnswered> scans;
};

/// Issues one query through `fetch`/`scan`, computing its diagnostic; the
/// caller times this call. Fetch answers come back for the oracles.
struct Issuer {
  std::function<Result<FetchResult>(const FetchRequest&)> fetch;
  std::function<Result<ScanResult>(const ScanRequest&)> scan;
  const char* fetch_span;
  const char* scan_span;
};

std::vector<FetchResult> Execute(const Query& q, const Issuer& io, SpanLog* log,
                                 uint64_t id, ScanResult* scanned) {
  std::vector<FetchResult> got;
  SpanScope query_span(log, KindName(q.kind), id);
  if (q.kind == Kind::kPointQ) {
    SpanScope span(log, io.scan_span, id);
    *scanned = Must(io.scan(q.scan), "scan");
    return got;
  }
  for (const FetchRequest& f : q.fetches) {
    SpanScope span(log, io.fetch_span, id);
    got.push_back(Must(io.fetch(f), "fetch"));
  }
  if (q.kind == Kind::kVis && got.size() == 2) {
    // VIS by class: old (< 1960) versus newer homes.
    SpanScope span(log, "diagnostics.vis", id);
    std::vector<int> old_home(got[1].columns[0].size());
    for (size_t i = 0; i < old_home.size(); ++i) {
      old_home[i] = got[1].columns[0][i] < 1960 ? 1 : 0;
    }
    dq::MeanPerColumnByClass(got[0].columns, old_home, 2);
  } else if (q.kind == Kind::kColDiff) {
    SpanScope span(log, "diagnostics.group_mean", id);
    std::vector<double> diff(got[0].columns[0].size());
    for (size_t i = 0; i < diff.size(); ++i) {
      diff[i] = got[0].columns[0][i] - got[1].columns[0][i];
    }
    dq::GroupedMeans(diff, got[2].columns[0]);
  } else {
    RunDiagnostic(q.kind, got[0], q.knn_query, log, id);
  }
  return got;
}

/// Property oracles and bookkeeping on one answered query (untimed).
void Record(const Query& q, const std::vector<FetchResult>& got,
            ScanResult* scanned, AnswerLog* log) {
  if (q.kind == Kind::kPointQ) {
    log->scans.push_back({q.scan, std::move(scanned->row_ids)});
    return;
  }
  if (q.kind == Kind::kTopK) CheckTopK(got[0].columns[0], 10);
  if (q.kind == Kind::kColDist) CheckHistogram(got[0].columns[0], 32);
  if (q.kind == Kind::kKnn) CheckKnn(got[0].columns, q.knn_query, 5);
  for (size_t i = 0; i < got.size(); ++i) {
    const FetchResult& r = got[i];
    log->fetches.push_back({q.fetches[i], DigestFetch(r),
                            {r.used_read, r.materialized_now, r.fetch_seconds,
                             r.predicted_read_sec, r.predicted_rerun_sec}});
  }
}

/// Stage outputs of a pipeline run outside the store.
std::map<std::string, DataFrame> OracleFrames(const PipelineName& p,
                                              const std::string& csv_dir,
                                              const std::set<std::string>& keep) {
  auto pipeline = Must(BuildZillowPipeline(p.tmpl, p.variant, csv_dir), "oracle pipeline");
  std::map<std::string, DataFrame> frames;
  PipelineContext ctx;
  Must(pipeline->Run(&ctx, -1,
                     [&](size_t stage, const DataFrame& frame, double) {
                       const std::string& key = pipeline->stage(stage).output_key();
                       if (keep.count(key)) frames[key] = frame;
                       return Status::OK();
                     }),
       "oracle run");
  return frames;
}

/// Digest of what `req` must return, built from the oracle frame in the
/// same layout DigestFetch uses. `corrupt` flips one bit of one value.
uint64_t ExpectedDigest(const DataFrame& frame, const FetchRequest& req,
                        bool corrupt) {
  std::vector<uint64_t> rows = req.row_ids;
  if (rows.empty()) {
    const uint64_t n = req.n_ex == 0 ? frame.num_rows()
                                     : std::min<uint64_t>(req.n_ex, frame.num_rows());
    rows.resize(n);
    std::iota(rows.begin(), rows.end(), 0);
  }
  std::vector<std::string> names = req.columns;
  if (names.empty()) names = frame.names();
  uint64_t h = Digest(rows.data(), rows.size() * sizeof(uint64_t));
  for (const std::string& name : names) h = Digest(name.data(), name.size(), h);
  for (const std::string& name : names) {
    auto col = frame.Column(name);
    if (!col.ok()) return 0;
    std::vector<double> values;
    values.reserve(rows.size());
    for (uint64_t r : rows) values.push_back(r < (*col)->size() ? (**col)[r] : NAN);
    if (corrupt && !values.empty()) {
      uint64_t bits;
      std::memcpy(&bits, &values[0], sizeof(bits));
      bits ^= 1;
      std::memcpy(&values[0], &bits, sizeof(bits));
      corrupt = false;
    }
    h = Digest(values.data(), values.size() * sizeof(double), h);
  }
  return h;
}

/// trad_pipeline oracle: every fetch answer equals the stage output of
/// the pipeline run outside the store. Runs one pipeline at a time to
/// bound memory.
void CheckAgainstPipelines(const std::vector<PipelineName>& pipelines,
                           const std::string& csv_dir,
                           const std::vector<Answered>& answers) {
  for (const PipelineName& p : pipelines) {
    std::set<std::string> keep;
    for (const Answered& a : answers) {
      if (a.request.model == p.name()) keep.insert(a.request.intermediate);
    }
    if (keep.empty()) continue;
    const auto frames = OracleFrames(p, csv_dir, keep);
    for (const Answered& a : answers) {
      if (a.request.model != p.name()) continue;
      auto it = frames.find(a.request.intermediate);
      const bool corrupt = Oracles::Get().Corrupt("trad_pipeline");
      const bool ok = it != frames.end() &&
                      ExpectedDigest(it->second, a.request, corrupt) == a.digest;
      Oracles::Get().Report("trad_pipeline", ok, corrupt,
                            p.name() + "." + a.request.intermediate +
                                " differs from the pipeline's own stage output");
    }
  }
}

/// scan_rows oracle for TRAD: the scan's rows equal this benchmark's filter
/// of the in-process (decode-path) fetch of the predicate column.
void CheckScans(Mistique* engine, const std::vector<ScanAnswered>& scans) {
  for (const ScanAnswered& s : scans) {
    FetchRequest col;
    col.project = s.request.project;
    col.model = s.request.model;
    col.intermediate = s.request.intermediate;
    col.columns = {s.request.predicate_column};
    const FetchResult values = Must(engine->Fetch(col), "decode fetch");
    std::vector<uint64_t> expect;
    for (size_t r = 0; r < values.columns[0].size(); ++r) {
      const double v = values.columns[0][r];
      if (v >= s.request.lo && v <= s.request.hi) expect.push_back(values.row_ids[r]);
    }
    std::vector<uint64_t> got = s.rows;
    const bool drop = Oracles::Get().Corrupt("scan_rows");
    if (drop) {
      if (got.empty()) got.push_back(0); else got.pop_back();
    }
    Oracles::Get().Report("scan_rows", got == expect, drop,
                          "TRAD scan rows differ from the filtered fetch");
  }
}

FetchRequest Req(const std::string& model, const std::string& interm,
                 std::vector<std::string> columns = {}) {
  FetchRequest r;
  r.project = "zillow";
  r.model = model;
  r.intermediate = interm;
  r.columns = std::move(columns);
  return r;
}

std::vector<std::string> SampleColumns(Rng* rng, size_t n,
                                       const std::vector<std::string>& from = kNumericColumns) {
  std::vector<std::string> cols = from;
  std::shuffle(cols.begin(), cols.end(), *rng);
  cols.resize(n);
  return cols;
}

/// Common per-layer figures for the Zillow workloads.
void ProbeZillowLayers(Mistique* engine, const std::string& store_dir,
                       const std::string& scratch, const std::string& model,
                       LayerFigures* f) {
  const FetchResult x = Must(engine->Fetch(Req(model, "x_all")), "probe fetch");
  std::vector<double> values;
  for (const auto& col : x.columns) {
    for (double v : col) {
      if (!std::isnan(v)) values.push_back(v);
    }
  }
  ProbeStorageLayers({engine}, store_dir, scratch, values, f);
  std::vector<std::vector<double>> numeric;
  for (size_t i = 0; i < x.columns.size() && numeric.size() < 8; ++i) {
    if (std::find(kNumericColumns.begin(), kNumericColumns.end(),
                  x.column_names[i]) != kNumericColumns.end()) {
      numeric.push_back(x.columns[i]);
      for (double& v : numeric.back()) {
        if (std::isnan(v)) v = 0;
      }
    }
  }
  f->diag = ProbeDiagnostics(numeric);
  f->nn_forward_ms = ProbeNnForwardMs(1, 64);
}

// ---------------------------------------------------------- trad-warm-local

constexpr size_t kTradProperties = 16000;
constexpr size_t kTradTrain = 32000;  // transactions: rows of x_all
constexpr size_t kTradTest = 8000;
constexpr size_t kTradClients = 4;
constexpr int kTradSetupReps = 5;
/// Four hyperparameter variants of one ElasticNet template: they share
/// every stage up to the learner, so dedup resolves most of their chunks
/// to one stored copy.
const std::vector<PipelineName> kTradPipelines = {{7, 0}, {7, 1}, {7, 2}, {7, 3}};

struct TradStore {
  std::vector<std::unique_ptr<Pipeline>> pipelines;  // outlive the engine
  std::unique_ptr<Mistique> engine;
  std::unique_ptr<QueryService> service;
  std::string csv_dir, store_dir;
  double log_seconds = 0;
  ~TradStore() {
    service.reset();
    engine.reset();
  }
};

std::unique_ptr<TradStore> SetUpTrad(const Args& args, const std::string& dir) {
  fs::remove_all(dir);
  auto t = std::make_unique<TradStore>();
  t->csv_dir = dir + "/csv";
  t->store_dir = dir + "/store";
  WriteCsvs(args.seed, kTradProperties, kTradTrain, kTradTest, t->csv_dir);
  MistiqueOptions options;
  options.store.directory = t->store_dir;
  options.strategy = StorageStrategy::kDedup;
  // With fsync on, the shared host's fsync latency set the spread of
  // set-up and ingest. The durable write path is measured on
  // dnn-cold-routed and by the durability probe.
  options.store.sync_writes = false;
  t->engine = std::make_unique<Mistique>();
  Must(t->engine->Open(options), "open trad store");
  for (const PipelineName& p : kTradPipelines) {
    t->pipelines.push_back(
        Must(BuildZillowPipeline(p.tmpl, p.variant, t->csv_dir), "pipeline"));
    const double t0 = Now();
    Must(t->engine->LogPipeline(t->pipelines.back().get(), "zillow"), "LogPipeline");
    t->log_seconds += Now() - t0;
  }
  Must(t->engine->Flush(), "flush trad");
  QueryServiceOptions service_options;
  service_options.num_workers = 4;
  service_options.max_queue = 0;
  t->service = std::make_unique<QueryService>(t->engine.get(), service_options);
  return t;
}

/// Seeded TRAD query generator for one session.
class TradGen {
 public:
  TradGen(uint64_t seed, const std::map<std::string, std::vector<double>>* ranges)
      : rng_(seed), ranges_(ranges) {}

  /// One round: 20 queries, POINTQ 20%, TOPK/COL_DIST/KNN/VIS 15% each,
  /// COL_DIFF/ROW_DIFF 10% each; 20% of them repeat a recent request of
  /// the same kind.
  std::vector<Query> Round() {
    std::vector<Kind> kinds;
    auto add = [&](Kind k, int n) { kinds.insert(kinds.end(), n, k); };
    add(Kind::kPointQ, 4);
    add(Kind::kTopK, 3);
    add(Kind::kColDist, 3);
    add(Kind::kKnn, 3);
    add(Kind::kVis, 3);
    add(Kind::kColDiff, 2);
    add(Kind::kRowDiff, 2);
    std::shuffle(kinds.begin(), kinds.end(), rng_);
    std::vector<Query> out;
    for (Kind k : kinds) {
      auto& recent = recent_[static_cast<int>(k)];
      if (!recent.empty() && Uniform(&rng_) < 0.2) {
        out.push_back(recent[Pick(&rng_, recent.size())]);
        continue;
      }
      out.push_back(Make(k));
      recent.push_back(out.back());
      if (recent.size() > 4) recent.erase(recent.begin());
    }
    return out;
  }

 private:
  std::string Model() { return kTradPipelines[Pick(&rng_, kTradPipelines.size())].name(); }

  Query Make(Kind kind) {
    Query q;
    q.kind = kind;
    const std::string model = Model();
    switch (kind) {
      case Kind::kPointQ: {
        const std::string col = kNumericColumns[Pick(&rng_, kNumericColumns.size())];
        const std::vector<double>& sorted = ranges_->at(col);
        const size_t a = Pick(&rng_, sorted.size() * 95 / 100);
        q.scan.project = "zillow";
        q.scan.model = model;
        q.scan.intermediate = "x_all";
        q.scan.predicate_column = col;
        q.scan.lo = sorted[a];
        q.scan.hi = sorted[a + sorted.size() / 20];
        break;
      }
      case Kind::kTopK:
      case Kind::kColDist:
        q.fetches.push_back(Req(model, "x_all", SampleColumns(&rng_, 1)));
        break;
      case Kind::kKnn:
        q.fetches.push_back(Req(model, "x_all", SampleColumns(&rng_, 6, kCompleteColumns)));
        q.knn_query = Pick(&rng_, 1000);
        break;
      case Kind::kVis:
        q.fetches.push_back(Req(model, "x_all", SampleColumns(&rng_, 5)));
        q.fetches.push_back(Req(model, "x_all", {"yearbuilt"}));
        break;
      case Kind::kColDiff: {
        // Two variants' test predictions, grouped by bedroom count.
        const size_t i = Pick(&rng_, kTradPipelines.size());
        const size_t j = (i + 1 + Pick(&rng_, kTradPipelines.size() - 1)) %
                         kTradPipelines.size();
        const std::string a = kTradPipelines[i].name();
        const std::string b = kTradPipelines[j].name();
        q.fetches.push_back(Req(a, "pred_test"));
        q.fetches.push_back(Req(b, "pred_test"));
        q.fetches.push_back(Req(a, "test_merged", {"bedroomcnt"}));
        break;
      }
      case Kind::kRowDiff: {
        FetchRequest r = Req(model, "x_all");
        r.row_ids = {Pick(&rng_, kTradTrain / 2), kTradTrain / 2 + Pick(&rng_, kTradTrain / 2)};
        q.fetches.push_back(r);
        break;
      }
    }
    return q;
  }

  Rng rng_;
  const std::map<std::string, std::vector<double>>* ranges_;
  std::vector<Query> recent_[7];
};

}  // namespace

void RunTradWarmLocal(const Args& args, RunOutput* out) {
  const std::string root = args.work_dir + "/trad-warm-local";
  SetupStats setup;
  std::unique_ptr<TradStore> store;
  const int reps = args.trace ? 1 : kTradSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    store.reset();
    const double t0 = Now();
    store = SetUpTrad(args, root + "/rep" + std::to_string(rep));
    setup.setup_s.push_back(Now() - t0);
    setup.ingest_mb_per_s.push_back(LogicalBytes(*store->engine) / 1e6 / store->log_seconds);
    if (rep + 1 < reps) fs::remove_all(root + "/rep" + std::to_string(rep));
  }
  TradStore& t = *store;
  QueryService& service = *t.service;

  // Warm the pool with every intermediate the mix reads, and take each
  // predicate column's value distribution for POINTQ ranges.
  std::map<std::string, std::vector<double>> ranges;
  {
    const SessionId warm = service.OpenSession();
    for (const PipelineName& p : kTradPipelines) {
      for (const char* interm : {"x_all", "pred_test", "test_merged"}) {
        Must(service.Fetch(warm, Req(p.name(), interm)), "warm fetch");
      }
    }
    const FetchResult x = Must(service.Fetch(warm, Req(kTradPipelines[0].name(), "x_all",
                                                       kNumericColumns)),
                               "range fetch");
    for (size_t i = 0; i < x.columns.size(); ++i) {
      std::vector<double> v;
      for (double d : x.columns[i]) {
        if (!std::isnan(d)) v.push_back(d);
      }
      std::sort(v.begin(), v.end());
      ranges[x.column_names[i]] = std::move(v);
    }
    (void)service.CloseSession(warm);
  }

  std::vector<AnswerLog> logs(kTradClients);
  std::vector<TradGen> gens;
  std::vector<SessionId> sessions;
  for (size_t i = 0; i < kTradClients; ++i) {
    gens.emplace_back(args.seed * 104729 + i, &ranges);
    sessions.push_back(service.OpenSession());
  }
  auto round = [&](size_t ci, uint64_t r, SpanLog* log,
                   std::vector<QueryRecord>* records) {
    const SessionId session = sessions[ci];
    Issuer io{[&](const FetchRequest& f) { return service.Fetch(session, f); },
              [&](const ScanRequest& s) { return service.Scan(session, s); },
              "service.fetch", "service.scan"};
    uint64_t i = 0;
    for (const Query& q : gens[ci].Round()) {
      const uint64_t id = (ci << 40) | (r << 8) | i++;
      ScanResult scanned;
      const double t0 = Now();
      std::vector<FetchResult> got = Execute(q, io, log, id, &scanned);
      records->push_back({q.kind, (Now() - t0) * 1e3, Now()});
      Record(q, got, &scanned, &logs[ci]);
    }
  };

  const ServiceStats before = service.Stats();
  const std::vector<std::vector<double>> qw_before = {QueueWaitBuckets(&service)};
  const Counters counters_before = Counters::Read();
  ProbeStack stack;
  std::unique_ptr<Pinger> pinger;
  if (args.trace) {
    stack.Start(&service, 0);
    Tracer::Get().Enable(true);
    pinger = std::make_unique<Pinger>(stack.direct_port);
  }
  const PhaseResult phase = RunClosedLoop(kTradClients, args.seconds, round);
  const double ping_ms = pinger ? pinger->StopAndMedianMs() : 0;
  const double trace_overhead_pct = TraceOverheadPct(phase.queries);
  const Counters counters = Counters::Read().Minus(counters_before);
  const ServiceStats after = service.Stats();
  const std::vector<std::vector<double>> qw_after = {QueueWaitBuckets(&service)};

  AnswerLog all;
  for (AnswerLog& l : logs) {
    all.fetches.insert(all.fetches.end(), l.fetches.begin(), l.fetches.end());
    all.scans.insert(all.scans.end(), l.scans.begin(), l.scans.end());
  }
  CheckAgainstPipelines(kTradPipelines, t.csv_dir, all.fetches);
  CheckScans(t.engine.get(), all.scans);

  out->attempted = phase.queries.size();
  out->failed = 0;
  const double spl = StoredPerLogical({t.engine.get()}, {t.store_dir},
                                      LogicalBytes(*t.engine));
  if (!args.trace) {
    FillEndToEnd(setup, phase.queries, phase.seconds, spl, out);
  } else {
    LayerFigures f;
    f.ping_rtt_ms = ping_ms;
    f.trace_overhead_pct = trace_overhead_pct;
    std::vector<RequestTarget> targets;
    for (size_t i = 0; i < 48; ++i) {
      RequestTarget rt;
      rt.request = Req(kTradPipelines[i % kTradPipelines.size()].name(), "x_all",
                       {kNumericColumns[i % kNumericColumns.size()]});
      rt.service = &service;
      rt.direct_port = stack.direct_port;
      targets.push_back(rt);
    }
    std::tie(f.wire_ms, f.router_hop_ms) = ProbeWireAndHop(targets, stack.front->port());
    f.queue_wait_ms = QueueWaitMedianMs(qw_before, qw_after);
    f.cache_hit_ratio = Ratio(static_cast<double>(after.cache_hits - before.cache_hits),
                              static_cast<double>(after.cache_lookups - before.cache_lookups));
    std::vector<FetchSample> samples;
    for (const Answered& a : all.fetches) samples.push_back(a.sample);
    FillFetchStats(samples, &f);
    // core: the same requests in-process against the engine.
    std::vector<double> fetch_ms, scan_ms;
    SpanLog* log = Tracer::Get().NewLog("probe-core");
    for (size_t i = 0; i < all.fetches.size() && i < 96; ++i) {
      const double t0 = Now();
      SpanScope span(log, "core.fetch", i);
      Must(t.engine->Fetch(all.fetches[i].request), "core fetch");
      fetch_ms.push_back((Now() - t0) * 1e3);
    }
    for (size_t i = 0; i < all.scans.size() && i < 48; ++i) {
      const double t0 = Now();
      SpanScope span(log, "core.scan", i);
      Must(t.engine->Scan(all.scans[i].request), "core scan");
      scan_ms.push_back((Now() - t0) * 1e3);
    }
    f.core_fetch_ms = Median(fetch_ms);
    f.core_scan_ms = Median(scan_ms);
    f.publishes = static_cast<double>(counters.publishes);
    f.pool_hit_ratio = Ratio(counters.pool_hits, counters.pool_hits + counters.pool_loads);
    f.disk_mb_per_query = counters.disk_read_bytes / 1e6 /
                          static_cast<double>(std::max<size_t>(1, phase.queries.size()));
    f.packed_block_share = Ratio(counters.packed_blocks, counters.packed_blocks + counters.decode_blocks);
    ProbeZillowLayers(t.engine.get(), t.store_dir, root, kTradPipelines[0].name(), &f);
    // Re-run of a fitted pipeline: the store's own logged transformer.
    {
      std::vector<double> run_ms;
      for (int i = 0; i < 3; ++i) {
        PipelineContext ctx;
        const double t0 = Now();
        SpanScope span(log, "pipeline.run", i);
        Must(t.pipelines[0]->Run(&ctx), "pipeline rerun");
        run_ms.push_back((Now() - t0) * 1e3);
      }
      f.pipeline_run_ms = Median(run_ms);
      // Logging time not spent running the pipelines (first runs fit).
      double run_s = 0;
      for (const PipelineName& p : kTradPipelines) {
        auto fresh = Must(BuildZillowPipeline(p.tmpl, p.variant, t.csv_dir), "fresh");
        PipelineContext ctx;
        const double t0 = Now();
        Must(fresh->Run(&ctx), "fresh run");
        run_s += Now() - t0;
      }
      f.log_store_share = 1.0 - run_s / t.log_seconds;
    }
    f.lateness_ms = phase.overshoot_ms;
    FillPerLayer(f, Tracer::Get().MedianSelfMs(), out);
    Tracer::Get().WriteChromeJson(args.work_dir + "/trace-trad-warm-local-" +
                                  std::to_string(args.seed) + ".json");
    stack.Stop();
  }
  for (SessionId s : sessions) (void)service.CloseSession(s);
  store.reset();
  fs::remove_all(root);
}

// -------------------------------------------------------- adaptive-dev-loop

namespace {

constexpr size_t kAdaptiveProperties = 4000;
constexpr size_t kReaders = 2;
constexpr double kReaderRate = 400;       // queries per second per reader
constexpr double kWriterInterval = 1.0;   // seconds between new pipelines
constexpr size_t kInitialPipelines = 4;
constexpr int kAdaptiveSetupReps = 3;

/// Pipelines in logging order. Set-up logs the first kInitialPipelines,
/// the boosted-tree templates whose fitting gives set-up seconds of real
/// work; the writer then logs ElasticNet variants, which fit quickly enough
/// for a one-second schedule.
std::vector<PipelineName> AdaptiveSchedule() {
  std::vector<PipelineName> out = {{1, 0}, {2, 0}, {5, 0}, {6, 0}};
  for (int tmpl : {7, 3, 4, 8}) {
    for (int v = 0; v < kNumZillowVariants; ++v) out.push_back({tmpl, v});
  }
  return out;
}

/// Per-intermediate columns the readers ask for (a fixed few, so later
/// touches of a column read what its first touch materialized).
const std::vector<std::pair<std::string, std::vector<std::string>>> kAdaptiveColumns = {
    {"x_all", {"yearbuilt", "taxamount"}},
};

struct AdaptiveStore {
  std::vector<std::unique_ptr<Pipeline>> pipelines;  // outlive the engine
  std::unique_ptr<Mistique> engine;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<net::Server> server;
  std::string csv_dir, store_dir;
  double log_seconds = 0;
  ~AdaptiveStore() {
    if (server) server->Stop();
    service.reset();
    engine.reset();
  }
};

std::unique_ptr<AdaptiveStore> SetUpAdaptive(const Args& args, const std::string& dir,
                                             const std::vector<PipelineName>& schedule) {
  fs::remove_all(dir);
  auto a = std::make_unique<AdaptiveStore>();
  a->csv_dir = dir + "/csv";
  a->store_dir = dir + "/store";
  WriteCsvs(args.seed, kAdaptiveProperties, kAdaptiveProperties * 3 / 4,
            kAdaptiveProperties / 4, a->csv_dir);
  MistiqueOptions options;
  options.store.directory = a->store_dir;
  options.strategy = StorageStrategy::kAdaptive;
  options.gamma_min = 0;  // materialize on the first query
  // The p99 is set by materialization stalls; with fsync on it tracked the
  // shared host's fsync latency more than the engine. The durable path is
  // measured on dnn-cold-routed and by the durability probe.
  options.store.sync_writes = false;
  a->engine = std::make_unique<Mistique>();
  Must(a->engine->Open(options), "open adaptive store");
  for (size_t i = 0; i < kInitialPipelines; ++i) {
    a->pipelines.push_back(Must(
        BuildZillowPipeline(schedule[i].tmpl, schedule[i].variant, a->csv_dir), "pipeline"));
    const double t0 = Now();
    Must(a->engine->LogPipeline(a->pipelines.back().get(), "zillow"), "LogPipeline");
    a->log_seconds += Now() - t0;
  }
  Must(a->engine->Flush(), "flush adaptive");
  QueryServiceOptions service_options;
  service_options.num_workers = 2;
  service_options.max_queue = 0;
  a->service = std::make_unique<QueryService>(a->engine.get(), service_options);
  a->server = std::make_unique<net::Server>(a->service.get());
  Must(a->server->Start(), "adaptive server start");
  return a;
}

/// The reader's query for `kind` against `model`.
Query AdaptiveQuery(Kind kind, const std::string& model, Rng* rng) {
  const auto& [interm, columns] = kAdaptiveColumns[Pick(rng, kAdaptiveColumns.size())];
  const std::string& col = columns[Pick(rng, columns.size())];
  Query q;
  q.kind = kind;
  if (kind == Kind::kPointQ) {
    q.scan.project = "zillow";
    q.scan.model = model;
    q.scan.intermediate = interm;
    q.scan.predicate_column = col;
    q.scan.lo = -1e300;  // every non-NaN row: the predicate touches all blocks
    q.scan.hi = 1e300;
    return q;
  }
  FetchRequest f = Req(model, interm);
  if (kind == Kind::kTopK || kind == Kind::kColDist) {
    f.columns = {col};
  } else if (kind == Kind::kRowDiff) {
    f.columns = columns;
    f.row_ids = {Pick(rng, 1000), 1000 + Pick(rng, 1000)};
  } else {
    f.columns = columns;
  }
  q.fetches.push_back(f);
  return q;
}

}  // namespace

void RunAdaptiveDevLoop(const Args& args, RunOutput* out) {
  const std::string root = args.work_dir + "/adaptive-dev-loop";
  const std::vector<PipelineName> schedule = AdaptiveSchedule();
  SetupStats setup;
  std::unique_ptr<AdaptiveStore> store;
  const int reps = args.trace ? 1 : kAdaptiveSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    store.reset();
    const double t0 = Now();
    store = SetUpAdaptive(args, root + "/rep" + std::to_string(rep), schedule);
    setup.setup_s.push_back(Now() - t0);
    if (rep + 1 < reps) fs::remove_all(root + "/rep" + std::to_string(rep));
  }
  AdaptiveStore& a = *store;
  QueryService& service = *a.service;
  // Warm-up: give the set-up pipelines' queried columns their first touch
  // now, so first touches in the measured phase come from the pipelines
  // the writer publishes, right after each publish, and never queue
  // behind a LogPipeline by chance.
  for (size_t i = 0; i < kInitialPipelines; ++i) {
    for (const auto& [interm, columns] : kAdaptiveColumns) {
      for (const std::string& col : columns) {
        Must(a.engine->Fetch(Req(schedule[i].name(), interm, {col})), "warm-up");
      }
    }
  }

  const ServiceStats before = service.Stats();
  const std::vector<std::vector<double>> qw_before = {QueueWaitBuckets(&service)};
  const Counters counters_before = Counters::Read();
  std::unique_ptr<Pinger> pinger;
  if (args.trace) {
    Tracer::Get().Enable(true);
    pinger = std::make_unique<Pinger>(a.server->port());
  }

  // Published pipelines are schedule[0, published); the writer appends.
  std::mutex published_mutex;
  size_t published = kInitialPipelines;
  std::atomic<bool> stop_writer{false};
  const double start = Now();
  const double end = start + args.seconds;
  std::vector<double> writer_log_s;
  std::thread writer([&] {
    for (size_t k = kInitialPipelines; k < schedule.size(); ++k) {
      const double due = start + kWriterInterval * static_cast<double>(k - kInitialPipelines + 1);
      while (Now() < due && !stop_writer) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (stop_writer) break;
      a.pipelines.push_back(Must(
          BuildZillowPipeline(schedule[k].tmpl, schedule[k].variant, a.csv_dir), "pipeline"));
      const double t0 = Now();
      Must(a.engine->LogPipeline(a.pipelines.back().get(), "zillow"), "writer LogPipeline");
      writer_log_s.push_back(Now() - t0);
      std::lock_guard<std::mutex> lock(published_mutex);
      published = k + 1;
    }
  });

  struct Sample {
    Kind kind;
    double due, latency_ms, lateness_ms;
  };
  std::vector<std::vector<Sample>> samples(kReaders);
  std::vector<AnswerLog> logs(kReaders);
  std::vector<std::thread> readers;
  for (size_t ri = 0; ri < kReaders; ++ri) {
    readers.emplace_back([&, ri] {
      Rng rng(args.seed * 15485863 + ri);
      net::ClientOptions options;
      options.port = a.server->port();
      net::Client client(options);
      Issuer io{[&](const FetchRequest& f) { return client.Fetch(f); },
                [&](const ScanRequest& s) { return client.Scan(s); },
                "net.client_fetch", "net.client_scan"};
      SpanLog* log = Tracer::Get().NewLog("reader-" + std::to_string(ri));
      uint64_t i = 0;
      // Open loop: request n is due at start + offset + n / rate, and is
      // timed from that due time. The readers are offset by half a period.
      double due = start + (static_cast<double>(ri) + 0.5) / (kReaderRate * kReaders);
      while (due < end) {
        // One whole round of 10: 20% each of TOPK, COL_DIST, POINTQ,
        // ROW_DIFF and VIS.
        std::vector<Kind> kinds = {Kind::kTopK,   Kind::kTopK,   Kind::kColDist,
                                   Kind::kColDist, Kind::kPointQ, Kind::kPointQ,
                                   Kind::kRowDiff, Kind::kRowDiff, Kind::kVis,
                                   Kind::kVis};
        std::shuffle(kinds.begin(), kinds.end(), rng);
        for (Kind kind : kinds) {
          size_t n;
          {
            std::lock_guard<std::mutex> lock(published_mutex);
            n = published;
          }
          // Favour the newest pipelines: 40% of queries go to the newest,
          // 20% to the one before, the rest anywhere.
          const double u = Uniform(&rng);
          const size_t pick = u < 0.4 ? n - 1 : u < 0.6 ? n - 2 : Pick(&rng, n);
          const Query q = AdaptiveQuery(kind, schedule[pick].name(), &rng);
          const double now = Now();
          if (due > now) std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
          const double sent = Now();
          ScanResult scanned;
          std::vector<FetchResult> got = Execute(q, io, log, i++, &scanned);
          const double done = Now();
          samples[ri].push_back({kind, due, (done - due) * 1e3,
                                 std::max(0.0, sent - due) * 1e3});
          Record(q, got, &scanned, &logs[ri]);
          due += 1.0 / kReaderRate;
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop_writer = true;
  writer.join();
  const double phase_end = Now();
  const double ping_ms = pinger ? pinger->StopAndMedianMs() : 0;
  std::vector<QueryRecord> phase_queries;
  for (const auto& mine : samples) {
    for (const Sample& s : mine) {
      phase_queries.push_back({s.kind, s.latency_ms, s.due + s.latency_ms / 1e3});
    }
  }
  const double trace_overhead_pct = TraceOverheadPct(phase_queries);
  const Counters counters = Counters::Read().Minus(counters_before);
  const ServiceStats after = service.Stats();
  const std::vector<std::vector<double>> qw_after = {QueueWaitBuckets(&service)};

  AnswerLog all;
  for (AnswerLog& l : logs) {
    all.fetches.insert(all.fetches.end(), l.fetches.begin(), l.fetches.end());
    all.scans.insert(all.scans.end(), l.scans.begin(), l.scans.end());
  }
  LayerFigures f;
  if (args.trace) {
    ProbeStack stack;
    stack.Start(&service, a.server->port());
    std::vector<RequestTarget> targets;
    for (size_t i = 0; i < all.fetches.size() && targets.size() < 48; ++i) {
      const FetchRequest& r = all.fetches[i].request;
      bool seen = false;
      for (const RequestTarget& t : targets) {
        seen = seen || Mistique::RequestKey(t.request) == Mistique::RequestKey(r);
      }
      if (!seen) targets.push_back({r, &service, a.server->port()});
    }
    std::tie(f.wire_ms, f.router_hop_ms) = ProbeWireAndHop(targets, stack.front->port());
    stack.Stop();
  }
  a.server->Stop();

  // Oracles: every answer (re-run or read) equals the pipeline's own
  // stage output; every fetched column is materialized after its first
  // query; scans equal the filtered fetch.
  const std::vector<PipelineName> logged(schedule.begin(),
                                         schedule.begin() + static_cast<long>(published));
  CheckAgainstPipelines(logged, a.csv_dir, all.fetches);
  for (const Answered& ans : all.fetches) {
    const ModelId id = Must(a.engine->metadata().FindModel("zillow", ans.request.model), "model");
    const IntermediateInfo* interm = Must(
        std::as_const(a.engine->metadata()).FindIntermediate(id, ans.request.intermediate),
        "interm");
    bool materialized = true;
    for (const ColumnInfo& col : interm->columns) {
      const bool wanted = ans.request.columns.empty() ||
                          std::count(ans.request.columns.begin(),
                                     ans.request.columns.end(), col.name);
      if (wanted) materialized = materialized && col.materialized;
    }
    const bool corrupt = Oracles::Get().Corrupt("materialized");
    if (corrupt) materialized = !materialized;
    Oracles::Get().Report("materialized", materialized, corrupt,
                          ans.request.model + "." + ans.request.intermediate +
                              " not materialized after its first query");
  }
  // Time the same requests in-process before CheckScans materializes
  // anything the readers never fetched.
  std::vector<double> fetch_ms, scan_ms;
  if (args.trace) {
    SpanLog* log = Tracer::Get().NewLog("probe-core");
    for (size_t i = 0; i < all.fetches.size() && i < 96; ++i) {
      const double t0 = Now();
      SpanScope span(log, "core.fetch", i);
      Must(a.engine->Fetch(all.fetches[i].request), "core fetch");
      fetch_ms.push_back((Now() - t0) * 1e3);
    }
    for (size_t i = 0; i < all.scans.size() && i < 48; ++i) {
      const double t0 = Now();
      SpanScope span(log, "core.scan", i);
      Must(a.engine->Scan(all.scans[i].request), "core scan");
      scan_ms.push_back((Now() - t0) * 1e3);
    }
  }
  CheckScans(a.engine.get(), all.scans);

  std::vector<QueryRecord> measured;
  std::vector<double> lateness;
  for (const auto& mine : samples) {
    for (const Sample& s : mine) {
      measured.push_back({s.kind, s.latency_ms, s.due + s.latency_ms / 1e3});
      lateness.push_back(s.lateness_ms);
    }
  }
  out->attempted = measured.size();
  out->failed = 0;
  const uint64_t logical = LogicalBytes(*a.engine);
  double log_s = a.log_seconds;
  for (double s : writer_log_s) log_s += s;
  const double spl = StoredPerLogical({a.engine.get()}, {a.store_dir}, logical);
  if (!args.trace) {
    // Ingest counts every LogPipeline of the run: set-up's and the writer's.
    setup.ingest_mb_per_s = {logical / 1e6 / log_s};
    FillEndToEnd(setup, measured, phase_end - start, spl, out);
  } else {
    f.ping_rtt_ms = ping_ms;
    f.lateness_ms = Median(lateness);
    f.trace_overhead_pct = trace_overhead_pct;
    f.queue_wait_ms = QueueWaitMedianMs(qw_before, qw_after);
    f.cache_hit_ratio = Ratio(static_cast<double>(after.cache_hits - before.cache_hits),
                              static_cast<double>(after.cache_lookups - before.cache_lookups));
    std::vector<FetchSample> fetch_samples;
    for (const Answered& ans : all.fetches) fetch_samples.push_back(ans.sample);
    FillFetchStats(fetch_samples, &f);
    f.core_fetch_ms = Median(fetch_ms);
    f.core_scan_ms = Median(scan_ms);
    f.publishes = static_cast<double>(counters.publishes);
    f.pool_hit_ratio = Ratio(counters.pool_hits, counters.pool_hits + counters.pool_loads);
    f.disk_mb_per_query = counters.disk_read_bytes / 1e6 /
                          static_cast<double>(std::max<size_t>(1, measured.size()));
    f.packed_block_share = Ratio(counters.packed_blocks, counters.packed_blocks + counters.decode_blocks);
    ProbeZillowLayers(a.engine.get(), a.store_dir, root, schedule[0].name(), &f);
    SpanLog* log = Tracer::Get().NewLog("probe-pipeline");
    std::vector<double> run_ms;
    for (int i = 0; i < 3; ++i) {
      PipelineContext ctx;
      const double t0 = Now();
      SpanScope span(log, "pipeline.run", i);
      Must(a.pipelines[0]->Run(&ctx), "pipeline rerun");
      run_ms.push_back((Now() - t0) * 1e3);
    }
    f.pipeline_run_ms = Median(run_ms);
    // Logging time not spent running the pipelines themselves (a fresh
    // copy's first run includes fitting, as logging's does).
    double run_s = 0;
    for (size_t i = 0; i < published; ++i) {
      auto fresh = Must(BuildZillowPipeline(schedule[i].tmpl, schedule[i].variant, a.csv_dir),
                        "fresh");
      PipelineContext ctx;
      const double t0 = Now();
      Must(fresh->Run(&ctx), "fresh run");
      run_s += Now() - t0;
    }
    f.log_store_share = 1.0 - run_s / log_s;
    FillPerLayer(f, Tracer::Get().MedianSelfMs(), out);
    Tracer::Get().WriteChromeJson(args.work_dir + "/trace-adaptive-dev-loop-" +
                                  std::to_string(args.seed) + ".json");
  }
  store.reset();
  fs::remove_all(root);
}

}  // namespace diagbench
