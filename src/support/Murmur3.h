//===- Murmur3.h - MurmurHash3 x64-128 hash -------------------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MurmurHash3 (x64, 128-bit variant) as referenced by the paper's
/// structural-hash and heap-path object-identity strategies (Sec. 5.2 and
/// 5.3). The strategies consume the low 64 bits of the 128-bit digest.
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_SUPPORT_MURMUR3_H
#define NIMG_SUPPORT_MURMUR3_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

namespace nimg {

/// 128-bit MurmurHash3 digest.
struct Murmur3Digest {
  uint64_t Lo = 0;
  uint64_t Hi = 0;

  friend bool operator==(const Murmur3Digest &A, const Murmur3Digest &B) {
    return A.Lo == B.Lo && A.Hi == B.Hi;
  }
};

/// Computes MurmurHash3 x64-128 over \p Data with the given \p Seed.
Murmur3Digest murmurHash3x64_128(const void *Data, size_t Len,
                                 uint64_t Seed = 0);

/// Convenience wrapper returning the low 64 bits of the 128-bit digest,
/// which is the object-identity width used throughout Sec. 5.
inline uint64_t murmurHash3(const void *Data, size_t Len, uint64_t Seed = 0) {
  return murmurHash3x64_128(Data, Len, Seed).Lo;
}

inline uint64_t murmurHash3(std::string_view S, uint64_t Seed = 0) {
  return murmurHash3(S.data(), S.size(), Seed);
}

inline uint64_t murmurHash3(const std::vector<uint8_t> &Bytes,
                            uint64_t Seed = 0) {
  return murmurHash3(Bytes.data(), Bytes.size(), Seed);
}

/// Incremental MurmurHash3 x64-128: the digest of any sequence of
/// update() calls equals murmurHash3x64_128() over their concatenated
/// bytes, so an encoding can be hashed as it is produced instead of being
/// collected in a buffer first. The append* helpers encode exactly like
/// the ByteBuffer methods of the same names (little-endian, raw or
/// u32-length-prefixed strings), so a stream fed the same calls as a
/// ByteBuffer yields that buffer's digest bit for bit.
class Murmur3Stream {
public:
  explicit Murmur3Stream(uint64_t Seed = 0) : H1(Seed), H2(Seed) {}

  void update(const void *Data, size_t Len) {
    // Inline fast path: most appends are a few bytes that only fill the
    // pending block.
    if (Len < 16 && Pending + Len < 16) {
      if (Len == 0) // Data may be null then (an empty vector's data()).
        return;
      std::memcpy(Buf + Pending, Data, Len);
      Pending += Len;
      Total += Len;
      return;
    }
    updateBlocks(static_cast<const uint8_t *>(Data), Len);
  }

  void appendU8(uint8_t V) { update(&V, 1); }
  void appendU32(uint32_t V) {
    uint8_t B[4];
    for (int I = 0; I < 4; ++I)
      B[I] = uint8_t(V >> (I * 8));
    update(B, 4);
  }
  void appendU64(uint64_t V) {
    uint8_t B[8];
    for (int I = 0; I < 8; ++I)
      B[I] = uint8_t(V >> (I * 8));
    update(B, 8);
  }
  void appendI64(int64_t V) { appendU64(uint64_t(V)); }
  void appendF64(double V) {
    uint64_t Raw;
    std::memcpy(&Raw, &V, sizeof(Raw));
    appendU64(Raw);
  }
  void appendString(std::string_view S) { update(S.data(), S.size()); }
  void appendSizedString(std::string_view S) {
    appendU32(uint32_t(S.size()));
    appendString(S);
  }

  /// The digest of everything fed so far; the stream stays usable.
  Murmur3Digest digest() const;

private:
  /// Completes the pending block and mixes every full block of the input.
  void updateBlocks(const uint8_t *Bytes, size_t Len);

  uint64_t H1, H2;
  uint64_t Total = 0;
  /// Bytes of the current, not yet mixed 16-byte block.
  uint8_t Buf[16] = {};
  size_t Pending = 0;
};

} // namespace nimg

#endif // NIMG_SUPPORT_MURMUR3_H
