#include "compress/lzss.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/bytes.h"

namespace mistique {

namespace {

// Match-finder parameters. kMinMatch must exceed the 7-byte encoded size of
// a match token minus one so matches always shrink the stream.
constexpr size_t kMinMatch = 8;
constexpr size_t kMaxMatch = 0xffff;
constexpr int kHashBits = 17;
constexpr size_t kHashSize = size_t{1} << kHashBits;
constexpr int kMaxChainSteps = 16;
// A match token (6 bytes plus a control bit) emits at most kMaxMatch
// bytes, so no stream yields more than ceil(kMaxMatch / 6) output bytes
// per input byte.
constexpr uint64_t kMaxExpansion = (kMaxMatch + 5) / 6;

inline uint32_t HashAt(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return (v * 2654435761u) >> (32 - kHashBits);
}

// Decoder output slack: match and literal copies move whole 8- or 16-byte
// words and may write up to kSlack bytes past the token's true end. Those
// bytes are overwritten by the tokens that follow, or trimmed at the end.
constexpr size_t kSlack = 16;
// Input bytes that 8 tokens plus one 8-byte literal copy can read.
constexpr ptrdiff_t kFastInputBytes = 8 * 6 + 8;

// Copies a match of `length` bytes from `distance` back, where
// 1 <= distance <= bytes written so far. The source may overlap the
// destination (distance < length); the result is the one a byte-at-a-time
// copy gives, where each output byte may repeat one just written. Each
// word copied reads only bytes that earlier steps wrote.
inline void CopyMatch(uint8_t* op, size_t distance, size_t length) {
  uint8_t* const end = op + length;
  const uint8_t* src = op - distance;
  if (distance >= 16) {
    if (distance >= length && length > 64) {
      std::memcpy(op, src, length);
      return;
    }
    for (; op < end; op += 16, src += 16) std::memcpy(op, src, 16);
    return;
  }
  if (distance == 1) {
    std::memset(op, *src, length);
    return;
  }
  if (distance < 8) {
    // The copied bytes repeat with every multiple of `distance`, so after
    // the first `period` bytes the copy can read `period` >= 8 bytes back.
    const size_t period = distance * ((8 + distance - 1) / distance);
    uint8_t* const stop = op + std::min(length, period);
    for (; op < stop; ++op) *op = op[-static_cast<ptrdiff_t>(distance)];
    src = op - period;
  }
  for (; op < end; op += 8, src += 8) std::memcpy(op, src, 8);
}

// Token stream writer: control byte every 8 tokens.
class TokenWriter {
 public:
  explicit TokenWriter(std::vector<uint8_t>* out) : out_(out) {}

  void Literal(uint8_t b) {
    BeginToken(/*is_match=*/false);
    out_->push_back(b);
  }

  void Match(uint32_t distance, uint16_t length) {
    BeginToken(/*is_match=*/true);
    const size_t n = out_->size();
    out_->resize(n + 6);
    std::memcpy(out_->data() + n, &distance, 4);
    std::memcpy(out_->data() + n + 4, &length, 2);
  }

 private:
  void BeginToken(bool is_match) {
    if (bit_ == 8) {
      ctrl_pos_ = out_->size();
      out_->push_back(0);
      bit_ = 0;
    }
    if (is_match) (*out_)[ctrl_pos_] |= static_cast<uint8_t>(1u << bit_);
    bit_++;
  }

  std::vector<uint8_t>* out_;
  size_t ctrl_pos_ = 0;
  int bit_ = 8;
};

}  // namespace

Status LzssCodec::Compress(const std::vector<uint8_t>& input,
                           std::vector<uint8_t>* output) const {
  output->clear();
  ByteWriter header;
  header.PutU64(input.size());
  *output = header.TakeBytes();
  if (input.empty()) return Status::OK();

  const uint8_t* data = input.data();
  const size_t n = input.size();

  // head[h] = most recent position with hash h; prev[i] = previous position
  // in the same chain. Positions offset by 1 so 0 means "empty".
  std::vector<uint32_t> head(kHashSize, 0);
  std::vector<uint32_t> prev(n, 0);

  TokenWriter tw(output);
  size_t i = 0;
  // LZ4-style acceleration: after repeated search misses, emit several
  // literals per search so incompressible regions cost ~O(1) per byte.
  size_t miss_streak = 0;
  while (i < n) {
    size_t best_len = 0;
    size_t best_pos = 0;
    if (i + sizeof(uint32_t) <= n) {
      const size_t limit = std::min(n - i, kMaxMatch);
      const uint32_t h = HashAt(data + i);
      uint32_t cand = head[h];
      int steps = 0;
      while (cand != 0 && steps++ < kMaxChainSteps) {
        const size_t c = cand - 1;
        // Quick reject: a candidate can only improve on best_len if it
        // matches at that offset too. This keeps runs (degenerate chains)
        // from re-scanning long matches per candidate.
        if (best_len > 0 &&
            (best_len >= limit || data[c + best_len] != data[i + best_len])) {
          cand = prev[c];
          continue;
        }
        size_t len = 0;
        while (len < limit && data[c + len] == data[i + len]) len++;
        if (len > best_len) {
          best_len = len;
          best_pos = c;
          if (len >= limit) break;
        }
        cand = prev[c];
      }
    }

    if (best_len >= kMinMatch) {
      miss_streak = 0;
      tw.Match(static_cast<uint32_t>(i - best_pos),
               static_cast<uint16_t>(best_len));
      // Index the covered range. Long matches insert sparsely: full-window
      // indexing of a megabyte run buys nothing but chain pollution.
      const size_t end = i + best_len;
      const size_t stride = best_len > 256 ? 16 : 1;
      while (i < end) {
        if (i + sizeof(uint32_t) <= n) {
          const uint32_t h = HashAt(data + i);
          prev[i] = head[h];
          head[h] = static_cast<uint32_t>(i + 1);
        }
        i += stride;
      }
      i = end;
    } else {
      const size_t skip = std::min<size_t>(1 + (miss_streak >> 5), 64);
      miss_streak++;
      const size_t end = std::min(i + skip, n);
      while (i < end) {
        if (i + sizeof(uint32_t) <= n) {
          const uint32_t h = HashAt(data + i);
          prev[i] = head[h];
          head[h] = static_cast<uint32_t>(i + 1);
        }
        tw.Literal(data[i]);
        i++;
      }
    }
  }
  return Status::OK();
}

Status LzssCodec::Decompress(const std::vector<uint8_t>& input,
                             std::vector<uint8_t>* output) const {
  ByteReader r(input);
  uint64_t out_len = 0;
  MISTIQUE_RETURN_NOT_OK(r.GetU64(&out_len));
  // Bound the declared length by what the stream can produce before
  // allocating for it: a corrupt header must not size the buffer.
  if (out_len / kMaxExpansion + (out_len % kMaxExpansion != 0) >
      r.remaining()) {
    return Status::Corruption("lzss: declared length " +
                              std::to_string(out_len) +
                              " exceeds what the stream can encode");
  }
  output->resize(out_len + kSlack);

  const uint8_t* ip = input.data() + r.position();
  const uint8_t* const iend = input.data() + input.size();
  uint8_t* const base = output->data();
  uint8_t* op = base;
  uint8_t* const oend = base + out_len;
  const auto truncated = [] {
    return Status::Corruption("lzss: stream truncated");
  };
  // Validates a match token at `ip` against the output so far; on success
  // copies it and advances both cursors.
  const auto match = [&]() -> Status {
    uint32_t distance = 0;
    uint16_t length = 0;
    std::memcpy(&distance, ip, 4);
    std::memcpy(&length, ip + 4, 2);
    ip += 6;
    if (distance == 0 || distance > static_cast<size_t>(op - base)) {
      return Status::Corruption("lzss: invalid match distance");
    }
    if (length > oend - op) {
      return Status::Corruption("lzss: match overruns declared length");
    }
    CopyMatch(op, distance, length);
    op += length;
    return Status::OK();
  };

  while (op < oend) {
    if (ip == iend) return truncated();
    const unsigned ctrl = *ip++;
    if (iend - ip < kFastInputBytes) {
      // Near the end of the input: one token at a time, each bounded.
      for (int bit = 0; bit < 8 && op < oend; ++bit) {
        if (((ctrl >> bit) & 1) == 0) {
          if (ip == iend) return truncated();
          *op++ = *ip++;
        } else {
          if (iend - ip < 6) return truncated();
          MISTIQUE_RETURN_NOT_OK(match());
        }
      }
      continue;
    }
    // All 8 tokens, and an 8-byte copy after any of them, are in bounds.
    // Runs of literals move as one word; the output slack absorbs the
    // excess, and an output that is complete ends the loop early.
    int bit = 0;
    while (true) {
      const int literals = std::min(std::countr_zero(ctrl >> bit), 8 - bit);
      std::memcpy(op, ip, 8);
      op += literals;
      ip += literals;
      bit += literals;
      if (bit == 8 || op >= oend) break;
      MISTIQUE_RETURN_NOT_OK(match());
      if (++bit == 8 || op >= oend) break;
    }
  }
  output->resize(out_len);
  return Status::OK();
}

}  // namespace mistique
