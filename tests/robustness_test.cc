// Failure-injection and exhaustive property tests: what happens when disk
// bytes rot, catalogs truncate, or inputs hit representational edges.

#include <cstdio>
#include <cstring>
#include <iterator>
#include <filesystem>
#include <fstream>

#include "common/float16.h"
#include "common/random.h"
#include "compress/lzss.h"
#include "core/mistique.h"
#include "durability/durable_file.h"
#include "storage/partition.h"
#include "gtest/gtest.h"
#include "pipeline/templates.h"
#include "pipeline/zillow.h"
#include "test_util.h"

namespace mistique {
namespace {

// --------------------------------------------- Exhaustive float16 sweep

TEST(Float16ExhaustiveTest, EveryHalfRoundTripsExactly) {
  // binary16 -> float -> binary16 must be the identity for every one of
  // the 65536 bit patterns (NaNs map to some NaN).
  for (uint32_t bits = 0; bits <= 0xffff; ++bits) {
    const auto h = static_cast<uint16_t>(bits);
    const float f = HalfToFloat(h);
    const uint16_t back = FloatToHalf(f);
    if (std::isnan(f)) {
      EXPECT_TRUE(std::isnan(HalfToFloat(back))) << bits;
    } else {
      EXPECT_EQ(back, h) << "bit pattern " << bits;
    }
  }
}

// ---------------------------------------------------- LZSS fuzz sweep

class LzssFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LzssFuzzTest, RandomStructuredBuffersRoundTrip) {
  TestSeed seed(GetParam());
  Rng rng(seed);
  LzssCodec codec;
  for (int round = 0; round < 20; ++round) {
    // Mix of runs, repeats of earlier content, and noise — adversarial for
    // match-finding edge cases.
    std::vector<uint8_t> input;
    const int segments = 1 + static_cast<int>(rng.NextBelow(12));
    for (int s = 0; s < segments; ++s) {
      switch (rng.NextBelow(3)) {
        case 0: {  // Run.
          input.insert(input.end(), rng.NextBelow(3000),
                       static_cast<uint8_t>(rng.NextBelow(256)));
          break;
        }
        case 1: {  // Replay of an earlier slice.
          if (!input.empty()) {
            const size_t start = rng.NextBelow(input.size());
            const size_t len =
                std::min<size_t>(rng.NextBelow(4000), input.size() - start);
            std::vector<uint8_t> slice(input.begin() + static_cast<ptrdiff_t>(start),
                                       input.begin() + static_cast<ptrdiff_t>(start + len));
            input.insert(input.end(), slice.begin(), slice.end());
          }
          break;
        }
        default: {  // Noise.
          const size_t len = rng.NextBelow(2000);
          for (size_t i = 0; i < len; ++i) {
            input.push_back(static_cast<uint8_t>(rng.NextBelow(256)));
          }
        }
      }
    }
    std::vector<uint8_t> compressed, output;
    ASSERT_OK(codec.Compress(input, &compressed));
    ASSERT_OK(codec.Decompress(compressed, &output));
    ASSERT_EQ(output, input) << "seed=" << GetParam() << " round=" << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LzssFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ------------------------------- Mutation fuzzing behind a valid CRC32C

// Rewrites `bytes` with 1-4 seeded mutations: bit flips, byte overwrites,
// length-like fields set to extreme values, truncation, or junk appended.
void Mutate(Rng* rng, std::vector<uint8_t>* bytes) {
  const int edits = 1 + static_cast<int>(rng->NextBelow(4));
  for (int i = 0; i < edits && !bytes->empty(); ++i) {
    const size_t at = rng->NextBelow(bytes->size());
    switch (rng->NextBelow(5)) {
      case 0:
        (*bytes)[at] ^= static_cast<uint8_t>(1u << rng->NextBelow(8));
        break;
      case 1:
        (*bytes)[at] = static_cast<uint8_t>(rng->NextBelow(256));
        break;
      case 2: {  // A u32 or u64 field set to an extreme value.
        static const uint64_t kExtremes[] = {
            0, 1, 0x7fffffffu, 0xffffffffu, uint64_t{1} << 62,
            ~uint64_t{0} - 2, ~uint64_t{0}};
        const uint64_t v = kExtremes[rng->NextBelow(std::size(kExtremes))];
        const size_t width = rng->NextBelow(2) == 0 ? 4 : 8;
        if (at + width <= bytes->size()) {
          std::memcpy(bytes->data() + at, &v, width);
        }
        break;
      }
      case 3:
        bytes->resize(at);
        break;
      default:
        for (int k = 0; k < 8; ++k) {
          bytes->push_back(static_cast<uint8_t>(rng->NextBelow(256)));
        }
    }
  }
}

// Decoders may accept a mutated input or reject it with a typed error;
// they may never crash, throw, or hand back a status outside these.
void ExpectTyped(const Status& st, int round) {
  ASSERT_TRUE(st.ok() || st.code() == StatusCode::kCorruption ||
              st.code() == StatusCode::kInvalidArgument)
      << "round " << round << ": " << st.ToString();
}

class DecoderMutationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DecoderMutationTest, LzssStreamsFailTyped) {
  TestSeed seed(GetParam());
  Rng rng(seed);
  std::vector<uint8_t> input(24 * 1024);
  for (size_t i = 0; i < input.size(); ++i) {
    // KBIT-like: mostly zero bins with sparse activations and repeats.
    input[i] = rng.NextBelow(5) == 0 ? static_cast<uint8_t>(rng.NextBelow(256))
                                     : 0;
    if (i >= 1024 && rng.NextBelow(64) == 0) input[i] = input[i - 1024];
  }
  LzssCodec codec;
  std::vector<uint8_t> stream;
  ASSERT_OK(codec.Compress(input, &stream));
  for (int round = 0; round < 4000; ++round) {
    std::vector<uint8_t> mutated = stream;
    Mutate(&rng, &mutated);
    std::vector<uint8_t> output;
    const Status st = codec.Decompress(mutated, &output);
    ExpectTyped(st, round);
    if (st.ok()) {
      ASSERT_LE(output.size(), mutated.size() * 10923);
    }
  }
}

TEST_P(DecoderMutationTest, PartitionFilesFailTyped) {
  TestSeed seed(GetParam());
  Rng rng(seed);
  TempDir dir("mutate");
  // One partition per storage codec outcome: LZSS-coded and stored raw,
  // with every dtype a reader decodes.
  Partition p(7);
  std::vector<double> doubles(64);
  for (double& v : doubles) v = rng.Gaussian();
  std::vector<uint8_t> bins(300);
  for (uint8_t& b : bins) b = static_cast<uint8_t>(rng.NextBelow(4) * 60);
  std::vector<uint8_t> small_bins(bins.size());
  for (size_t i = 0; i < bins.size(); ++i) small_bins[i] = bins[i] % 8;
  std::vector<bool> bits(77);
  for (size_t i = 0; i < bits.size(); ++i) bits[i] = rng.NextBelow(2) == 1;
  ASSERT_OK(p.Add(1, ColumnChunk::FromDoubles(doubles)));
  ASSERT_OK(p.Add(2, ColumnChunk::FromDoubles(doubles, DType::kFloat32)));
  ASSERT_OK(p.Add(3, ColumnChunk::FromDoubles(doubles, DType::kFloat16)));
  ASSERT_OK(p.Add(4, ColumnChunk::FromBins(bins)));
  ASSERT_OK(p.Add(5, ColumnChunk::FromBits(bits)));
  ASSERT_OK(p.Add(6, ColumnChunk::FromInts({1, -2, 3})));
  ASSERT_OK(p.Add(7, ColumnChunk::FromPackedBins(small_bins, 3)));
  ASSERT_OK(p.Add(8, ColumnChunk::FromPackedWords(small_bins, 5)));
  ASSERT_OK(p.Add(9, ColumnChunk()));
  ASSERT_OK(p.Add(10, ColumnChunk::FromBins(std::vector<uint8_t>(2048, 0))));
  std::vector<std::vector<uint8_t>> files;
  for (CodecType type : {CodecType::kLzss, CodecType::kNone}) {
    const Codec* codec = GetCodec(type).ValueOrDie();
    files.push_back(p.Serialize(*codec).ValueOrDie());
  }
  ASSERT_NE(files[0][8], files[1][8]) << "expected one LZSS, one raw";

  ReconstructionTable identity;
  for (int i = 0; i < 256; ++i) identity.centers.push_back(i);
  const std::string path = dir.path() + "/part.mq";
  for (int round = 0; round < 1500; ++round) {
    std::vector<uint8_t> mutated = files[rng.NextBelow(files.size())];
    Mutate(&rng, &mutated);
    // Re-seal: the envelope CRC matches, so the partition decoder itself
    // is what sees the damage.
    ASSERT_OK(WriteEnvelopeFileAtomic(path, mutated, /*sync=*/false,
                                      "mutate"));
    ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> sealed,
                         ReadEnvelopeFile(path));
    ASSERT_EQ(sealed, mutated);
    ExpectTyped(Partition::ReadChunkIds(sealed).status(), round);
    Result<Partition> partition = Partition::Deserialize(sealed);
    ExpectTyped(partition.status(), round);
    if (!partition.ok()) continue;
    for (ChunkId id : partition->chunk_ids()) {
      const ColumnChunk* chunk = partition->Get(id).ValueOrDie();
      ExpectTyped(chunk->DecodeAsDouble(&identity).status(), round);
      (void)chunk->min_value();  // Zone-map stats decode the chunk too.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderMutationTest,
                         ::testing::Values(101, 102, 103, 104));

// ------------------------------------------- On-disk corruption injection

class CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<TempDir>("corrupt");
    ZillowConfig config;
    config.num_properties = 300;
    config.num_train = 220;
    config.num_test = 80;
    ASSERT_OK(WriteZillowCsvs(GenerateZillow(config), dir_->path()));
  }

  MistiqueOptions Options() {
    MistiqueOptions opts;
    opts.store.directory = dir_->path() + "/store";
    opts.row_block_size = 64;
    // Tiny pool: reads must hit the (corrupted) disk files.
    opts.store.memory_budget_bytes = 1;
    return opts;
  }

  // Flips bytes in the middle of every partition file.
  void CorruptPartitions() {
    namespace fs = std::filesystem;
    for (const auto& entry :
         fs::directory_iterator(dir_->path() + "/store")) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("part-", 0) != 0) continue;
      std::fstream file(entry.path(),
                        std::ios::binary | std::ios::in | std::ios::out);
      const auto size = static_cast<std::streamoff>(entry.file_size());
      if (size < 64) continue;
      file.seekp(size / 2);
      const char junk[8] = {'\x5a', '\x5a', '\x5a', '\x5a',
                            '\x5a', '\x5a', '\x5a', '\x5a'};
      file.write(junk, sizeof(junk));
    }
  }

  std::unique_ptr<TempDir> dir_;
};

TEST_F(CorruptionTest, CorruptPartitionSurfacesErrorNotGarbage) {
  Mistique mq;
  ASSERT_OK(mq.Open(Options()));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> pipeline,
                       BuildZillowPipeline(1, 0, dir_->path()));
  ASSERT_OK(mq.LogPipeline(pipeline.get(), "zillow").status());
  ASSERT_OK(mq.Flush());

  CorruptPartitions();

  FetchRequest req;
  req.project = "zillow";
  req.model = "P1_v0";
  req.intermediate = "x_all";
  req.force_read = true;
  const Status status = mq.Fetch(req).status();
  // Either the framing (magic/directory) or the LZSS stream must notice.
  EXPECT_FALSE(status.ok());
}

TEST_F(CorruptionTest, TruncatedCatalogRejectedOnReopen) {
  {
    Mistique mq;
    ASSERT_OK(mq.Open(Options()));
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> pipeline,
                         BuildZillowPipeline(1, 0, dir_->path()));
    ASSERT_OK(mq.LogPipeline(pipeline.get(), "zillow").status());
    ASSERT_OK(mq.SaveCatalog());
  }
  // Truncate the catalog to half.
  const std::string path = dir_->path() + "/store/catalog.mq";
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);

  Mistique mq;
  EXPECT_EQ(mq.Open(Options()).code(), StatusCode::kCorruption);
}

TEST_F(CorruptionTest, RerunStillWorksWhenStorageRots) {
  // The executor path is independent of the store: even with every
  // partition corrupted, re-running the pipeline must serve the query.
  Mistique mq;
  ASSERT_OK(mq.Open(Options()));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Pipeline> pipeline,
                       BuildZillowPipeline(1, 0, dir_->path()));
  ASSERT_OK(mq.LogPipeline(pipeline.get(), "zillow").status());
  ASSERT_OK(mq.Flush());
  CorruptPartitions();

  FetchRequest req;
  req.project = "zillow";
  req.model = "P1_v0";
  req.intermediate = "pred_test";
  req.force_read = false;
  ASSERT_OK_AND_ASSIGN(FetchResult result, mq.Fetch(req));
  EXPECT_FALSE(result.used_read);
  EXPECT_EQ(result.columns[0].size(), 80u);
}

// ------------------------------------------------ Representational edges

TEST(EdgeValueTest, ChunksCarryInfinitiesAndNaN) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::nan("");
  const std::vector<double> values = {0.0, -0.0, inf, -inf, nan, 1e308,
                                      -1e308, 5e-324};
  ColumnChunk c = ColumnChunk::FromDoubles(values);
  ASSERT_OK_AND_ASSIGN(std::vector<double> decoded, c.DecodeAsDouble());
  EXPECT_EQ(decoded[2], inf);
  EXPECT_EQ(decoded[3], -inf);
  EXPECT_TRUE(std::isnan(decoded[4]));
  EXPECT_EQ(decoded[7], 5e-324);
}

TEST(EdgeValueTest, KBitQuantizerSurvivesConstantSample) {
  KBitQuantizer q(8);
  ASSERT_OK(q.Fit(std::vector<double>(1000, 3.25)));
  ASSERT_OK_AND_ASSIGN(ColumnChunk c, q.Quantize({3.25, 3.25, 0.0, 9.9}));
  ASSERT_OK_AND_ASSIGN(std::vector<double> decoded,
                       c.DecodeAsDouble(&q.reconstruction()));
  for (double v : decoded) EXPECT_EQ(v, 3.25);  // Only one bin value exists.
}

TEST(EdgeValueTest, EmptyIntermediateColumnsFetchable) {
  // A frame with zero rows must log and fetch without dividing by zero.
  DataFrame frame;
  ASSERT_OK(frame.AddColumn("empty", {}));
  EXPECT_EQ(frame.num_rows(), 0u);
  ColumnChunk c = ColumnChunk::FromDoubles({});
  EXPECT_EQ(c.num_values(), 0u);
  ASSERT_OK_AND_ASSIGN(std::vector<double> decoded, c.DecodeAsDouble());
  EXPECT_TRUE(decoded.empty());
}

}  // namespace
}  // namespace mistique
