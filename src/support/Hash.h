//===- support/Hash.h - Stable content hashing ------------------*- C++ -*-===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small stable (cross-run, cross-platform) content hasher for
/// determinism digests, such as the golden tests' and the benchmark's
/// records of what a run produced: 64-bit FNV-1a over a byte stream, with
/// convenience feeders for strings and integers and a fixed-width hex
/// digest. Not cryptographic: a client can craft a collision, so nothing
/// that serves untrusted input may treat equal digests as equal inputs.
/// The compile service's response cache keys on the whole request
/// (serve::requestKey, docs/SERVICE.md) for that reason.
///
/// Determinism contract: the digest is a pure function of the fed bytes;
/// integer feeders serialize little-endian with a fixed width so the same
/// logical key hashes identically on every platform the project builds on.
///
/// Thread-safety: Hasher is a plain value type; distinct instances may be
/// used from distinct threads freely.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_HASH_H
#define SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace cpr {

/// Streaming 64-bit FNV-1a hasher.
class Hasher {
public:
  /// FNV-1a 64-bit offset basis / prime.
  static constexpr uint64_t OffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr uint64_t Prime = 0x100000001b3ULL;

  /// Feeds \p Len raw bytes.
  Hasher &bytes(const void *Data, size_t Len) {
    const unsigned char *P = static_cast<const unsigned char *>(Data);
    for (size_t I = 0; I < Len; ++I) {
      State ^= P[I];
      State *= Prime;
    }
    return *this;
  }

  /// Feeds the characters of \p S followed by a NUL separator, so
  /// ("ab","c") and ("a","bc") hash differently.
  Hasher &str(const std::string &S) {
    bytes(S.data(), S.size());
    unsigned char Sep = 0;
    return bytes(&Sep, 1);
  }

  /// Feeds \p V as 8 little-endian bytes.
  Hasher &u64(uint64_t V) {
    unsigned char Buf[8];
    for (int I = 0; I < 8; ++I)
      Buf[I] = static_cast<unsigned char>(V >> (8 * I));
    return bytes(Buf, 8);
  }

  /// Feeds the IEEE-754 bit pattern of \p V.
  Hasher &f64(double V);

  /// The current digest.
  uint64_t digest() const { return State; }

  /// The current digest as 16 lowercase hex characters.
  std::string hex() const;

private:
  uint64_t State = OffsetBasis;
};

/// One-shot convenience: 64-bit FNV-1a of \p S (no trailing separator).
uint64_t hashString(const std::string &S);

} // namespace cpr

#endif // SUPPORT_HASH_H
