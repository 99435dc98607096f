#include <cstring>

#include "common/bytes.h"
#include "common/random.h"
#include "compress/codec.h"
#include "compress/lzss.h"
#include "compress/simple_codecs.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace mistique {
namespace {

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.NextBelow(256));
  return out;
}

std::vector<uint8_t> RepeatingBytes(size_t n, size_t period, uint64_t seed) {
  std::vector<uint8_t> unit = RandomBytes(period, seed);
  std::vector<uint8_t> out;
  out.reserve(n);
  while (out.size() < n) {
    const size_t take = std::min(period, n - out.size());
    out.insert(out.end(), unit.begin(), unit.begin() + static_cast<ptrdiff_t>(take));
  }
  return out;
}

// Parameterized round-trip: every codec must restore every data pattern.
struct CodecCase {
  CodecType codec;
  const char* pattern;
};

class CodecRoundTripTest
    : public ::testing::TestWithParam<std::tuple<CodecType, const char*>> {};

std::vector<uint8_t> MakePattern(const std::string& name) {
  if (name == "empty") return {};
  if (name == "single") return {42};
  if (name == "zeros") return std::vector<uint8_t>(10000, 0);
  if (name == "random") return RandomBytes(20000, 1);
  if (name == "repeating") return RepeatingBytes(30000, 512, 2);
  if (name == "low_cardinality") {
    Rng rng(3);
    std::vector<uint8_t> out(15000);
    const uint8_t dict[4] = {3, 60, 61, 255};
    for (auto& b : out) b = dict[rng.NextBelow(4)];
    return out;
  }
  if (name == "ascending") {
    std::vector<uint8_t> out(5000);
    for (size_t i = 0; i < out.size(); ++i) out[i] = static_cast<uint8_t>(i);
    return out;
  }
  return {1, 2, 3};
}

TEST_P(CodecRoundTripTest, RoundTrips) {
  const auto [type, pattern] = GetParam();
  ASSERT_OK_AND_ASSIGN(const Codec* codec, GetCodec(type));
  const std::vector<uint8_t> input = MakePattern(pattern);
  std::vector<uint8_t> compressed, output;
  ASSERT_OK(codec->Compress(input, &compressed));
  ASSERT_OK(codec->Decompress(compressed, &output));
  EXPECT_EQ(output, input) << CodecTypeName(type) << " on " << pattern;
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecsAllPatterns, CodecRoundTripTest,
    ::testing::Combine(
        ::testing::Values(CodecType::kNone, CodecType::kRle,
                          CodecType::kDelta, CodecType::kDictionary,
                          CodecType::kLzss),
        ::testing::Values("empty", "single", "zeros", "random", "repeating",
                          "low_cardinality", "ascending")),
    [](const auto& info) {
      return std::string(CodecTypeName(std::get<0>(info.param))) + "_" +
             std::get<1>(info.param);
    });

TEST(LzssTest, CompressesRepeatedData) {
  // The whole-buffer window must fold a repeated 8KB block to ~nothing.
  const std::vector<uint8_t> input = RepeatingBytes(256 * 1024, 8192, 7);
  LzssCodec codec;
  std::vector<uint8_t> compressed;
  ASSERT_OK(codec.Compress(input, &compressed));
  EXPECT_LT(compressed.size(), input.size() / 10);
}

TEST(LzssTest, RandomDataDoesNotExplode) {
  const std::vector<uint8_t> input = RandomBytes(64 * 1024, 9);
  LzssCodec codec;
  std::vector<uint8_t> compressed;
  ASSERT_OK(codec.Compress(input, &compressed));
  // Worst case: 1 control byte per 8 literals + header.
  EXPECT_LT(compressed.size(), input.size() * 9 / 8 + 64);
}

TEST(LzssTest, LongRangeMatchAcrossWindow) {
  // Two identical 100KB halves separated by random filler: the second half
  // must compress as one long back-reference chain even at distance 100KB+.
  std::vector<uint8_t> half = RandomBytes(100 * 1024, 11);
  std::vector<uint8_t> input = half;
  input.insert(input.end(), half.begin(), half.end());
  LzssCodec codec;
  std::vector<uint8_t> compressed, output;
  ASSERT_OK(codec.Compress(input, &compressed));
  ASSERT_OK(codec.Decompress(compressed, &output));
  EXPECT_EQ(output, input);
  EXPECT_LT(compressed.size(), half.size() * 12 / 10);
}

TEST(LzssTest, CorruptStreamIsRejected) {
  LzssCodec codec;
  std::vector<uint8_t> compressed;
  ASSERT_OK(codec.Compress(RandomBytes(1000, 1), &compressed));
  // Truncate the stream.
  compressed.resize(compressed.size() / 2);
  std::vector<uint8_t> output;
  EXPECT_FALSE(codec.Decompress(compressed, &output).ok());
}

TEST(LzssTest, BadDistanceIsCorruption) {
  // Hand-craft a stream: declared length 4, one match token with distance 9
  // into an empty history.
  std::vector<uint8_t> stream;
  const uint64_t len = 4;
  stream.resize(8);
  std::memcpy(stream.data(), &len, 8);
  stream.push_back(0x01);  // Control: first token is a match.
  const uint32_t distance = 9;
  const uint16_t mlen = 4;
  stream.resize(stream.size() + 6);
  std::memcpy(stream.data() + 9, &distance, 4);
  std::memcpy(stream.data() + 13, &mlen, 2);
  LzssCodec codec;
  std::vector<uint8_t> output;
  EXPECT_EQ(codec.Decompress(stream, &output).code(),
            StatusCode::kCorruption);
}

TEST(LzssTest, DeclaredLengthBeyondStreamIsCorruption) {
  // A 9-byte stream (header + one control byte) declaring 2^62 output
  // bytes: rejected before any allocation is sized from the header.
  std::vector<uint8_t> stream(9, 0);
  const uint64_t len = uint64_t{1} << 62;
  std::memcpy(stream.data(), &len, 8);
  LzssCodec codec;
  std::vector<uint8_t> output;
  EXPECT_EQ(codec.Decompress(stream, &output).code(),
            StatusCode::kCorruption);
}

// ------------------------------------------- LZSS decoder vs a reference

// The straightforward decoder: one token and one output byte at a time,
// with the same checks as LzssCodec::Decompress. The fast decoder must
// agree with it on every stream, valid or not.
Status ReferenceLzssDecompress(const std::vector<uint8_t>& input,
                               std::vector<uint8_t>* output) {
  ByteReader r(input);
  uint64_t out_len = 0;
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&out_len));
  // A match token is 6 bytes plus a control bit and emits <= 65535 bytes.
  if (out_len > uint64_t{10923} * r.remaining()) {
    return Status::Corruption("declared length too large");
  }
  output->clear();
  uint8_t ctrl = 0;
  int bit = 8;
  while (output->size() < out_len) {
    if (bit == 8) {
      MISTIQUE_RETURN_NOT_OK(r.GetU8(&ctrl));
      bit = 0;
    }
    const bool is_match = (ctrl >> bit) & 1;
    bit++;
    if (is_match) {
      uint32_t distance = 0;
      uint16_t length = 0;
      MISTIQUE_RETURN_NOT_OK(r.GetU32(&distance));
      MISTIQUE_RETURN_NOT_OK(r.GetU16(&length));
      if (distance == 0 || distance > output->size()) {
        return Status::Corruption("invalid match distance");
      }
      if (output->size() + length > out_len) {
        return Status::Corruption("match overruns declared length");
      }
      const size_t src = output->size() - distance;
      for (uint16_t k = 0; k < length; ++k) {
        output->push_back((*output)[src + k]);
      }
    } else {
      uint8_t b = 0;
      MISTIQUE_RETURN_NOT_OK(r.GetU8(&b));
      output->push_back(b);
    }
  }
  return Status::OK();
}

// Hand-assembles token streams, so tests can place matches the compressor
// would never emit (distance 1..7 overlaps, maximum lengths and
// distances). Tracks the decoded length to fill in the header.
class LzssStreamBuilder {
 public:
  void Literal(uint8_t b) {
    Token(false);
    body_.push_back(b);
    decoded_++;
  }
  void Match(uint32_t distance, uint16_t length) {
    Token(true);
    const size_t n = body_.size();
    body_.resize(n + 6);
    std::memcpy(body_.data() + n, &distance, 4);
    std::memcpy(body_.data() + n + 4, &length, 2);
    decoded_ += length;
  }
  uint64_t decoded() const { return decoded_; }
  std::vector<uint8_t> Finish() const {
    std::vector<uint8_t> out(8);
    std::memcpy(out.data(), &decoded_, 8);
    out.insert(out.end(), body_.begin(), body_.end());
    return out;
  }

 private:
  void Token(bool is_match) {
    if (bit_ == 8) {
      ctrl_pos_ = body_.size();
      body_.push_back(0);
      bit_ = 0;
    }
    if (is_match) body_[ctrl_pos_] |= static_cast<uint8_t>(1u << bit_);
    bit_++;
  }

  std::vector<uint8_t> body_;
  size_t ctrl_pos_ = 0;
  int bit_ = 8;
  uint64_t decoded_ = 0;
};

// Seeded streams covering each branch of the fast decoder.
std::vector<std::vector<uint8_t>> CraftedLzssStreams(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<uint8_t>> streams;
  {  // Literal-only, long enough for whole zero control bytes and a tail.
    LzssStreamBuilder b;
    for (int i = 0; i < 8 * 40 + 5; ++i) {
      b.Literal(static_cast<uint8_t>(rng.NextBelow(256)));
    }
    streams.push_back(b.Finish());
  }
  for (uint32_t d = 1; d <= 16; ++d) {  // Overlapping matches, distance d.
    LzssStreamBuilder b;
    for (uint32_t i = 0; i < d; ++i) {
      b.Literal(static_cast<uint8_t>(rng.NextBelow(256)));
    }
    for (int m = 0; m < 6; ++m) {
      b.Match(d, static_cast<uint16_t>(d + 1 + rng.NextBelow(70)));
      b.Literal(static_cast<uint8_t>(rng.NextBelow(256)));
    }
    b.Match(d, 0);  // Zero-length matches are legal no-ops.
    b.Literal(static_cast<uint8_t>(rng.NextBelow(256)));
    streams.push_back(b.Finish());
  }
  {  // 65535-byte matches: overlapping (short period) and not.
    LzssStreamBuilder b;
    for (int i = 0; i < 3; ++i) b.Literal(static_cast<uint8_t>(i + 1));
    b.Match(3, 0xffff);
    b.Match(static_cast<uint32_t>(b.decoded()), 0xffff);
    b.Literal(9);
    streams.push_back(b.Finish());
  }
  {  // Maximum distance: back to the first byte, after random history.
    LzssStreamBuilder b;
    for (int i = 0; i < 3000; ++i) {
      if (i > 64 && rng.NextBelow(4) == 0) {
        b.Match(static_cast<uint32_t>(b.decoded()),
                static_cast<uint16_t>(rng.NextBelow(40)));
      } else {
        b.Literal(static_cast<uint8_t>(rng.NextBelow(256)));
      }
    }
    streams.push_back(b.Finish());
  }
  {  // What the compressor writes for runs, repeats and noise.
    std::vector<uint8_t> input = RepeatingBytes(20000, 700, seed);
    input.insert(input.end(), 5000, 0);
    const std::vector<uint8_t> noise = RandomBytes(3000, seed + 1);
    input.insert(input.end(), noise.begin(), noise.end());
    std::vector<uint8_t> compressed;
    EXPECT_OK(LzssCodec().Compress(input, &compressed));
    streams.push_back(compressed);
  }
  return streams;
}

TEST(LzssDecoderTest, MatchesReferenceOnCraftedStreams) {
  TestSeed seed(20261020);
  LzssCodec codec;
  for (const std::vector<uint8_t>& stream : CraftedLzssStreams(seed)) {
    std::vector<uint8_t> fast, reference;
    ASSERT_OK(ReferenceLzssDecompress(stream, &reference));
    ASSERT_OK(codec.Decompress(stream, &fast));
    ASSERT_EQ(fast, reference);
  }
}

TEST(LzssDecoderTest, EveryProperPrefixIsCorruption) {
  TestSeed seed(20261021);
  LzssCodec codec;
  for (const std::vector<uint8_t>& stream : CraftedLzssStreams(seed)) {
    // Check every prefix of short streams; sample long ones.
    const size_t step = stream.size() > 4096 ? 61 : 1;
    for (size_t len = 0; len < stream.size(); len += step) {
      const std::vector<uint8_t> prefix(stream.begin(),
                                        stream.begin() +
                                            static_cast<ptrdiff_t>(len));
      std::vector<uint8_t> output;
      ASSERT_EQ(codec.Decompress(prefix, &output).code(),
                StatusCode::kCorruption)
          << "prefix of " << len << " of " << stream.size() << " bytes";
    }
  }
}

TEST(LzssDecoderTest, MutatedStreamsAgreeWithReference) {
  TestSeed seed(20261022);
  Rng rng(seed);
  LzssCodec codec;
  const std::vector<std::vector<uint8_t>> streams = CraftedLzssStreams(seed);
  for (int round = 0; round < 3000; ++round) {
    std::vector<uint8_t> stream = streams[rng.NextBelow(streams.size())];
    const int flips = 1 + static_cast<int>(rng.NextBelow(4));
    for (int f = 0; f < flips; ++f) {
      stream[rng.NextBelow(stream.size())] ^=
          static_cast<uint8_t>(1u << rng.NextBelow(8));
    }
    std::vector<uint8_t> fast, reference;
    const Status want = ReferenceLzssDecompress(stream, &reference);
    const Status got = codec.Decompress(stream, &fast);
    ASSERT_EQ(got.code(), want.code()) << "round " << round << ": "
                                       << got.ToString() << " vs "
                                       << want.ToString();
    if (got.ok()) {
      ASSERT_EQ(fast, reference) << "round " << round;
    }
  }
}

TEST(RleTest, CompressesRuns) {
  std::vector<uint8_t> input(100000, 7);
  RleCodec codec;
  std::vector<uint8_t> compressed;
  ASSERT_OK(codec.Compress(input, &compressed));
  EXPECT_LT(compressed.size(), 1000u);
}

TEST(RleTest, ZeroRunIsCorruption) {
  std::vector<uint8_t> stream(8 + 2, 0);
  const uint64_t len = 5;
  std::memcpy(stream.data(), &len, 8);
  // run byte = 0 -> invalid.
  RleCodec codec;
  std::vector<uint8_t> output;
  EXPECT_EQ(codec.Decompress(stream, &output).code(),
            StatusCode::kCorruption);
}

TEST(DictionaryTest, PacksLowCardinality) {
  const std::vector<uint8_t> input = MakePattern("low_cardinality");
  DictionaryCodec codec;
  std::vector<uint8_t> compressed;
  ASSERT_OK(codec.Compress(input, &compressed));
  // 4-bit packing: ~half the size.
  EXPECT_LT(compressed.size(), input.size() * 6 / 10);
}

TEST(DictionaryTest, FallsBackOnHighCardinality) {
  const std::vector<uint8_t> input = RandomBytes(4096, 21);
  DictionaryCodec codec;
  std::vector<uint8_t> compressed, output;
  ASSERT_OK(codec.Compress(input, &compressed));
  ASSERT_OK(codec.Decompress(compressed, &output));
  EXPECT_EQ(output, input);
}

TEST(CodecRegistryTest, UnknownTagRejected) {
  EXPECT_FALSE(GetCodec(static_cast<CodecType>(250)).ok());
}

TEST(CodecRegistryTest, NamesAreStable) {
  EXPECT_STREQ(CodecTypeName(CodecType::kLzss), "lzss");
  EXPECT_STREQ(CodecTypeName(CodecType::kNone), "none");
  EXPECT_STREQ(CodecTypeName(CodecType::kRle), "rle");
  EXPECT_STREQ(CodecTypeName(CodecType::kDelta), "delta");
  EXPECT_STREQ(CodecTypeName(CodecType::kDictionary), "dictionary");
}

}  // namespace
}  // namespace mistique
