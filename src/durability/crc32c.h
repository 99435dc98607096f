#ifndef MISTIQUE_DURABILITY_CRC32C_H_
#define MISTIQUE_DURABILITY_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace mistique {

/// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
/// checksum used by iSCSI, ext4, and LevelDB/RocksDB block formats. On
/// x86-64 hosts with SSE4.2 it runs on the `crc32` instruction, 8 bytes
/// per step; elsewhere it falls back to a portable slice-by-8 table walk.
/// The path is picked once, at first use. Both compute the same value.
///
/// `Crc32c(data, len)` returns the standard (xor-out 0xFFFFFFFF) value;
/// `Crc32cExtend` chains over split buffers:
///   Crc32c(ab) == Crc32cExtend(Crc32c(a), b, len_b).
uint32_t Crc32c(const void* data, size_t len);
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t len);

/// Which path Crc32cExtend dispatches to: "sse4.2" or "slice8".
const char* Crc32cTier();

/// The two paths behind Crc32cExtend, callable directly so tests and
/// benches can compare them. Crc32cExtendHardware may only be called when
/// Crc32cTier() is "sse4.2".
uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t len);
uint32_t Crc32cExtendHardware(uint32_t crc, const void* data, size_t len);

}  // namespace mistique

#endif  // MISTIQUE_DURABILITY_CRC32C_H_
