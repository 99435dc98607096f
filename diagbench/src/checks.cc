#include <algorithm>
#include <cmath>
#include <numeric>

#include "bench.h"
#include "diagnostics/queries.h"

namespace diagbench {

using namespace mistique;  // NOLINT: benchmark brevity.
namespace dq = diagnostics;

void RunDiagnostic(Kind kind, const FetchResult& r, size_t knn_query,
                   SpanLog* log, uint64_t id) {
  switch (kind) {
    case Kind::kTopK: {
      SpanScope span(log, "diagnostics.topk", id);
      dq::TopK(r.columns[0], 10);
      break;
    }
    case Kind::kColDist: {
      SpanScope span(log, "diagnostics.hist", id);
      dq::ComputeHistogram(r.columns[0], 32);
      break;
    }
    case Kind::kKnn: {
      SpanScope span(log, "diagnostics.knn", id);
      dq::Knn(r.columns, knn_query, 5);
      break;
    }
    case Kind::kVis: {
      SpanScope span(log, "diagnostics.vis", id);
      dq::MeanPerColumn(r.columns);
      break;
    }
    case Kind::kRowDiff: {
      SpanScope span(log, "diagnostics.row_diff", id);
      dq::RowDiff(r.columns, 0, 1);
      break;
    }
    case Kind::kColDiff:
    case Kind::kPointQ:
      break;
  }
}

void CheckTopK(const std::vector<double>& col, size_t k) {
  auto top = dq::TopK(col, k);
  const bool corrupt = Oracles::Get().Corrupt("topk_sort");
  if (corrupt && top.size() > 1) std::swap(top[0], top[top.size() - 1]);
  std::vector<uint64_t> order;
  for (uint64_t i = 0; i < col.size(); ++i) {
    if (!std::isnan(col[i])) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](uint64_t a, uint64_t b) {
    return col[a] > col[b];
  });
  bool ok = top.size() == std::min(k, order.size());
  for (size_t i = 0; ok && i < top.size(); ++i) {
    ok = top[i].first == order[i] && top[i].second == col[order[i]];
  }
  Oracles::Get().Report("topk_sort", ok, corrupt, "TopK differs from a full sort");
}

void CheckHistogram(const std::vector<double>& col, int bins) {
  dq::Histogram h = dq::ComputeHistogram(col, bins);
  const bool corrupt = Oracles::Get().Corrupt("hist_count");
  if (corrupt && !h.counts.empty()) h.counts[0] += 1;
  uint64_t total = 0, rows = 0;
  for (uint64_t n : h.counts) total += n;
  for (double v : col) rows += std::isnan(v) ? 0 : 1;
  Oracles::Get().Report("hist_count", total == rows && h.counts.size() == size_t(bins),
                        corrupt, "histogram counts do not sum to the row count");
}

void CheckKnn(const std::vector<std::vector<double>>& cols, size_t query,
              size_t k) {
  std::vector<size_t> got = dq::Knn(cols, query, k);
  const bool corrupt = Oracles::Get().Corrupt("knn_brute");
  if (corrupt && !got.empty()) got.back() = query;
  const size_t rows = cols.empty() ? 0 : cols[0].size();
  std::vector<std::pair<double, size_t>> dist;
  for (size_t r = 0; r < rows; ++r) {
    if (r == query) continue;
    double d = 0;
    for (const auto& col : cols) d += (col[r] - col[query]) * (col[r] - col[query]);
    dist.push_back({d, r});
  }
  std::stable_sort(dist.begin(), dist.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  // Equal distances may order either way; compare distances, not ids.
  bool ok = got.size() == std::min(k, dist.size());
  for (size_t i = 0; ok && i < got.size(); ++i) {
    double d = 0;
    for (const auto& col : cols) {
      d += (col[got[i]] - col[query]) * (col[got[i]] - col[query]);
    }
    ok = got[i] != query && d == dist[i].first;
  }
  Oracles::Get().Report("knn_brute", ok, corrupt, "KNN differs from brute force");
}

}  // namespace diagbench
