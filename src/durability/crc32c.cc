#include "durability/crc32c.h"

#include <array>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#define MISTIQUE_CRC_X86 1
#endif

namespace mistique {

namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // Castagnoli, reflected.

struct Crc32cTables {
  // table[0] is the classic byte-at-a-time table; tables 1..7 fold the
  // CRC of a zero-extended byte 1..7 positions further along, enabling the
  // slice-by-8 inner loop.
  std::array<std::array<uint32_t, 256>, 8> t;

  Crc32cTables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = t[0][i];
      for (size_t slice = 1; slice < 8; ++slice) {
        crc = t[0][crc & 0xFFu] ^ (crc >> 8);
        t[slice][i] = crc;
      }
    }
  }
};

const Crc32cTables& Tables() {
  static const Crc32cTables tables;
  return tables;
}

inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

using ExtendFn = uint32_t (*)(uint32_t, const void*, size_t);

struct Dispatch {
  ExtendFn extend = Crc32cExtendPortable;
  const char* tier = "slice8";
};

const Dispatch& GetDispatch() {
  static const Dispatch d = [] {
    Dispatch r;
#ifdef MISTIQUE_CRC_X86
    if (__builtin_cpu_supports("sse4.2")) {
      r.extend = Crc32cExtendHardware;
      r.tier = "sse4.2";
    }
#endif
    return r;
  }();
  return d;
}

}  // namespace

uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t len) {
  const Crc32cTables& tab = Tables();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  crc ^= 0xFFFFFFFFu;

  // Align to 8 bytes so the slice loop can read full words.
  while (len > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    crc = tab.t[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
    --len;
  }
  while (len >= 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = tab.t[7][lo & 0xFFu] ^ tab.t[6][(lo >> 8) & 0xFFu] ^
          tab.t[5][(lo >> 16) & 0xFFu] ^ tab.t[4][lo >> 24] ^
          tab.t[3][hi & 0xFFu] ^ tab.t[2][(hi >> 8) & 0xFFu] ^
          tab.t[1][(hi >> 16) & 0xFFu] ^ tab.t[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  while (len > 0) {
    crc = tab.t[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
    --len;
  }
  return crc ^ 0xFFFFFFFFu;
}

#ifdef MISTIQUE_CRC_X86

// The crc32 instruction computes exactly the reflected Castagnoli CRC
// step, so it chains with the table walk's pre/post inversion unchanged.
__attribute__((target("sse4.2"))) uint32_t Crc32cExtendHardware(
    uint32_t crc, const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  while (len > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0) {
    c = _mm_crc32_u8(c, *p++);
    --len;
  }
  uint64_t c64 = c;
  while (len >= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c64 = _mm_crc32_u64(c64, word);
    p += 8;
    len -= 8;
  }
  c = static_cast<uint32_t>(c64);
  while (len > 0) {
    c = _mm_crc32_u8(c, *p++);
    --len;
  }
  return c ^ 0xFFFFFFFFu;
}

#else

uint32_t Crc32cExtendHardware(uint32_t, const void*, size_t) {
  std::abort();  // Crc32cTier() never reports "sse4.2" here.
}

#endif  // MISTIQUE_CRC_X86

const char* Crc32cTier() { return GetDispatch().tier; }

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t len) {
  return GetDispatch().extend(crc, data, len);
}

uint32_t Crc32c(const void* data, size_t len) {
  return Crc32cExtend(0, data, len);
}

}  // namespace mistique
