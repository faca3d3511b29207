//===- Murmur3.cpp - MurmurHash3 x64-128 implementation -------------------===//
//
// Public-domain MurmurHash3 by Austin Appleby, adapted to the nimage coding
// conventions. Reference: https://github.com/aappleby/smhasher.
//
//===----------------------------------------------------------------------===//

#include "src/support/Murmur3.h"

#include <cstring>

using namespace nimg;

static inline uint64_t rotl64(uint64_t X, int8_t R) {
  return (X << R) | (X >> (64 - R));
}

static inline uint64_t fmix64(uint64_t K) {
  K ^= K >> 33;
  K *= 0xff51afd7ed558ccdULL;
  K ^= K >> 33;
  K *= 0xc4ceb9fe1a85ec53ULL;
  K ^= K >> 33;
  return K;
}

static inline uint64_t getBlock64(const uint8_t *P, size_t I) {
  uint64_t V;
  std::memcpy(&V, P + I * 8, sizeof(V));
  return V;
}

namespace {

constexpr uint64_t C1 = 0x87c37b91114253d5ULL;
constexpr uint64_t C2 = 0x4cf5ad432745937fULL;

/// Mixes one full 16-byte block into the running state.
inline void mixBlock(uint64_t &H1, uint64_t &H2, const uint8_t *Block) {
  uint64_t K1 = getBlock64(Block, 0);
  uint64_t K2 = getBlock64(Block, 1);

  K1 *= C1;
  K1 = rotl64(K1, 31);
  K1 *= C2;
  H1 ^= K1;
  H1 = rotl64(H1, 27);
  H1 += H2;
  H1 = H1 * 5 + 0x52dce729;

  K2 *= C2;
  K2 = rotl64(K2, 33);
  K2 *= C1;
  H2 ^= K2;
  H2 = rotl64(H2, 31);
  H2 += H1;
  H2 = H2 * 5 + 0x38495ab5;
}

/// Mixes the final partial block (\p Len & 15 bytes at \p Tail) and
/// finalizes a digest over \p Len bytes in total.
Murmur3Digest finish(uint64_t H1, uint64_t H2, const uint8_t *Tail,
                     size_t Len) {
  uint64_t K1 = 0;
  uint64_t K2 = 0;

  switch (Len & 15) {
  case 15:
    K2 ^= uint64_t(Tail[14]) << 48;
    [[fallthrough]];
  case 14:
    K2 ^= uint64_t(Tail[13]) << 40;
    [[fallthrough]];
  case 13:
    K2 ^= uint64_t(Tail[12]) << 32;
    [[fallthrough]];
  case 12:
    K2 ^= uint64_t(Tail[11]) << 24;
    [[fallthrough]];
  case 11:
    K2 ^= uint64_t(Tail[10]) << 16;
    [[fallthrough]];
  case 10:
    K2 ^= uint64_t(Tail[9]) << 8;
    [[fallthrough]];
  case 9:
    K2 ^= uint64_t(Tail[8]) << 0;
    K2 *= C2;
    K2 = rotl64(K2, 33);
    K2 *= C1;
    H2 ^= K2;
    [[fallthrough]];
  case 8:
    K1 ^= uint64_t(Tail[7]) << 56;
    [[fallthrough]];
  case 7:
    K1 ^= uint64_t(Tail[6]) << 48;
    [[fallthrough]];
  case 6:
    K1 ^= uint64_t(Tail[5]) << 40;
    [[fallthrough]];
  case 5:
    K1 ^= uint64_t(Tail[4]) << 32;
    [[fallthrough]];
  case 4:
    K1 ^= uint64_t(Tail[3]) << 24;
    [[fallthrough]];
  case 3:
    K1 ^= uint64_t(Tail[2]) << 16;
    [[fallthrough]];
  case 2:
    K1 ^= uint64_t(Tail[1]) << 8;
    [[fallthrough]];
  case 1:
    K1 ^= uint64_t(Tail[0]) << 0;
    K1 *= C1;
    K1 = rotl64(K1, 31);
    K1 *= C2;
    H1 ^= K1;
    break;
  case 0:
    break;
  }

  H1 ^= Len;
  H2 ^= Len;
  H1 += H2;
  H2 += H1;
  H1 = fmix64(H1);
  H2 = fmix64(H2);
  H1 += H2;
  H2 += H1;

  return {H1, H2};
}

} // namespace

Murmur3Digest nimg::murmurHash3x64_128(const void *Data, size_t Len,
                                       uint64_t Seed) {
  const uint8_t *Bytes = static_cast<const uint8_t *>(Data);
  const size_t NumBlocks = Len / 16;

  uint64_t H1 = Seed;
  uint64_t H2 = Seed;
  for (size_t I = 0; I < NumBlocks; ++I)
    mixBlock(H1, H2, Bytes + I * 16);
  return finish(H1, H2, Bytes + NumBlocks * 16, Len);
}

void Murmur3Stream::updateBlocks(const uint8_t *Bytes, size_t Len) {
  Total += Len;
  if (Pending > 0) {
    size_t Fill = 16 - Pending;
    std::memcpy(Buf + Pending, Bytes, Fill);
    mixBlock(H1, H2, Buf);
    Bytes += Fill;
    Len -= Fill;
    Pending = 0;
  }
  for (; Len >= 16; Bytes += 16, Len -= 16)
    mixBlock(H1, H2, Bytes);
  std::memcpy(Buf, Bytes, Len);
  Pending = Len;
}

Murmur3Digest Murmur3Stream::digest() const {
  return finish(H1, H2, Buf, Total);
}
