#include "common/crc32.h"

#include <array>

namespace cloudwalker {
namespace {

using Crc32Table = std::array<uint32_t, 256>;

// Slicing-by-16 (Kounavis & Berry, ISCC 2005). kTables[0] is the classic
// reflected table for polynomial 0xEDB88320 (IEEE): the CRC of one byte.
// kTables[k][b] is the CRC of byte b followed by k zero bytes, so one step
// can fold 16 input bytes with 16 independent lookups.
constexpr std::array<Crc32Table, 16> BuildTables() {
  std::array<Crc32Table, 16> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

constexpr std::array<Crc32Table, 16> kTables = BuildTables();

// Little-endian word assembled from bytes: no alignment or host byte order
// assumed (compilers fuse it into one load on little-endian targets).
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// Folds one little-endian word's four bytes through tables k+3 (lowest
// byte, furthest from the end of the 16-byte step) down to k.
inline uint32_t FoldWord(uint32_t w, size_t k) {
  return kTables[k + 3][w & 0xffu] ^ kTables[k + 2][(w >> 8) & 0xffu] ^
         kTables[k + 1][(w >> 16) & 0xffu] ^ kTables[k][w >> 24];
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  for (; size >= 16; p += 16, size -= 16) {
    crc = FoldWord(LoadLe32(p) ^ crc, 12) ^ FoldWord(LoadLe32(p + 4), 8) ^
          FoldWord(LoadLe32(p + 8), 4) ^ FoldWord(LoadLe32(p + 12), 0);
  }
  for (; size > 0; ++p, --size) {
    crc = kTables[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace cloudwalker
