// Micro-benchmarks (google-benchmark) for the hot storage-path primitives:
// compression codecs, CRC32C, wire result encoding, MinHash signatures,
// float16 conversion, and k-bit quantization. These are the per-chunk
// costs behind the logging overhead measurements of Fig. 11 and the
// per-layer costs of a cold routed read (disk CRC, LZSS decode, wire).

#include <benchmark/benchmark.h>

#include "common/float16.h"
#include "common/random.h"
#include "compress/codec.h"
#include "compress/lzss.h"
#include "dedup/minhash.h"
#include "durability/crc32c.h"
#include "net/wire.h"
#include "quantize/quantizer.h"
#include "storage/column_chunk.h"

namespace mistique {
namespace {

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.NextBelow(256));
  return out;
}

std::vector<uint8_t> RepeatingBytes(size_t n, size_t period) {
  std::vector<uint8_t> unit = RandomBytes(period, 7);
  std::vector<uint8_t> out;
  out.reserve(n);
  while (out.size() < n) {
    const size_t take = std::min(period, n - out.size());
    out.insert(out.end(), unit.begin(),
               unit.begin() + static_cast<ptrdiff_t>(take));
  }
  return out;
}

void BM_CodecCompress(benchmark::State& state, CodecType type,
                      bool repetitive) {
  const Codec* codec = GetCodec(type).ValueOrDie();
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<uint8_t> input =
      repetitive ? RepeatingBytes(n, 4096) : RandomBytes(n, 3);
  std::vector<uint8_t> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec->Compress(input, &out));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  state.counters["ratio"] =
      static_cast<double>(n) / static_cast<double>(out.size());
}

void BM_CodecDecompress(benchmark::State& state, CodecType type) {
  const Codec* codec = GetCodec(type).ValueOrDie();
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<uint8_t> input = RepeatingBytes(n, 4096);
  std::vector<uint8_t> compressed, out;
  (void)codec->Compress(input, &compressed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec->Decompress(compressed, &out));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

BENCHMARK_CAPTURE(BM_CodecCompress, lzss_random, CodecType::kLzss, false)
    ->Arg(1 << 16)
    ->Arg(1 << 20);
BENCHMARK_CAPTURE(BM_CodecCompress, lzss_repetitive, CodecType::kLzss, true)
    ->Arg(1 << 16)
    ->Arg(1 << 20);
BENCHMARK_CAPTURE(BM_CodecCompress, rle_repetitive, CodecType::kRle, true)
    ->Arg(1 << 20);
BENCHMARK_CAPTURE(BM_CodecCompress, dict_random, CodecType::kDictionary,
                  false)
    ->Arg(1 << 20);
BENCHMARK_CAPTURE(BM_CodecDecompress, lzss, CodecType::kLzss)->Arg(1 << 20);
BENCHMARK_CAPTURE(BM_CodecDecompress, rle, CodecType::kRle)->Arg(1 << 20);

// KBIT-like partition payload: 8-bit bins where most activations are zero
// (post-ReLU), with zero runs, sparse nonzero bins, and channels that
// repeat earlier ones.
std::vector<uint8_t> KbitLikeBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out;
  out.reserve(n);
  while (out.size() < n) {
    const size_t len = std::min<size_t>(16 + rng.NextBelow(400), n - out.size());
    const uint64_t kind = rng.NextBelow(8);
    if (kind < 4) {
      out.insert(out.end(), len, 0);
    } else if (kind < 7 || out.size() < 4096) {
      for (size_t i = 0; i < len; ++i) {
        out.push_back(rng.NextBelow(3) == 0
                          ? static_cast<uint8_t>(rng.NextBelow(256))
                          : 0);
      }
    } else {
      const size_t from = rng.NextBelow(out.size() - len);
      for (size_t i = 0; i < len; ++i) out.push_back(out[from + i]);
    }
  }
  return out;
}

void BM_LzssDecompressKbit(benchmark::State& state) {
  LzssCodec codec;
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<uint8_t> input = KbitLikeBytes(n, 11);
  std::vector<uint8_t> compressed;
  (void)codec.Compress(input, &compressed);
  for (auto _ : state) {
    std::vector<uint8_t> out;
    benchmark::DoNotOptimize(codec.Decompress(compressed, &out));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  state.counters["ratio"] =
      static_cast<double>(n) / static_cast<double>(compressed.size());
}
BENCHMARK(BM_LzssDecompressKbit)->Arg(512 << 10);

void BM_Crc32c(benchmark::State& state, bool hardware) {
  if (hardware && std::string(Crc32cTier()) != "sse4.2") {
    state.SkipWithError("no SSE4.2 on this host");
    return;
  }
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<uint8_t> input = RandomBytes(n, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hardware ? Crc32cExtendHardware(0, input.data(), n)
                 : Crc32cExtendPortable(0, input.data(), n));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK_CAPTURE(BM_Crc32c, slice8, false)->Arg(4 << 10)->Arg(1 << 20);
BENCHMARK_CAPTURE(BM_Crc32c, sse42, true)->Arg(4 << 10)->Arg(1 << 20);

// A fetch answer of `columns` columns of `rows` values each: 4096x32 is a
// VIS read of a whole layer, 256x96 a KNN read.
FetchResult MakeFetchResult(size_t columns, size_t rows) {
  Rng rng(13);
  FetchResult r;
  for (size_t c = 0; c < columns; ++c) {
    r.column_names.push_back("n" + std::to_string(c));
    std::vector<double> col(rows);
    for (double& v : col) v = rng.Gaussian();
    r.columns.push_back(std::move(col));
  }
  for (size_t i = 0; i < rows; ++i) r.row_ids.push_back(i * 7);
  r.used_read = true;
  return r;
}

void BM_FetchResultEncode(benchmark::State& state) {
  const FetchResult r = MakeFetchResult(static_cast<size_t>(state.range(0)),
                                        static_cast<size_t>(state.range(1)));
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string payload = wire::EncodeFetchResult(r);
    bytes = payload.size();
    benchmark::DoNotOptimize(payload.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_FetchResultEncode)
    ->Args({4096, 32})
    ->Args({256, 96})
    ->Unit(benchmark::kMicrosecond);

void BM_FetchResultDecode(benchmark::State& state) {
  const std::string payload = wire::EncodeFetchResult(
      MakeFetchResult(static_cast<size_t>(state.range(0)),
                      static_cast<size_t>(state.range(1))));
  for (auto _ : state) {
    FetchResult out;
    benchmark::DoNotOptimize(wire::DecodeFetchResult(payload, &out));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_FetchResultDecode)
    ->Args({4096, 32})
    ->Args({256, 96})
    ->Unit(benchmark::kMicrosecond);

void BM_MinHash(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> values(static_cast<size_t>(state.range(0)));
  for (double& v : values) v = rng.Gaussian();
  const ColumnChunk chunk = ColumnChunk::FromDoubles(values);
  MinHashOptions opts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeMinHash(chunk, opts));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MinHash)->Arg(1024)->Arg(8192);

void BM_Float16RoundTrip(benchmark::State& state) {
  Rng rng(6);
  std::vector<float> values(4096);
  for (float& v : values) v = static_cast<float>(rng.Gaussian());
  for (auto _ : state) {
    uint32_t acc = 0;
    for (float v : values) acc += FloatToHalf(v);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Float16RoundTrip);

void BM_KBitQuantize(benchmark::State& state) {
  Rng rng(7);
  std::vector<double> sample(16384), values(4096);
  for (double& v : sample) v = rng.Gaussian();
  for (double& v : values) v = rng.Gaussian();
  KBitQuantizer q(static_cast<int>(state.range(0)));
  (void)q.Fit(sample);
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.Quantize(values));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_KBitQuantize)->Arg(8)->Arg(3);

void BM_PoolQuantize(benchmark::State& state) {
  Rng rng(8);
  std::vector<double> map(32 * 32);
  for (double& v : map) v = rng.Gaussian();
  PoolQuantizer pool(static_cast<int>(state.range(0)), PoolMode::kAvg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.PoolMap(map, 32, 32));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_PoolQuantize)->Arg(2)->Arg(32);

}  // namespace
}  // namespace mistique
