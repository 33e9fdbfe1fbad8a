#include "crypto/sha256_multi.h"

#include <cassert>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define LW_SHA_MULTI_X86 1
#include <immintrin.h>
#endif

namespace lw::crypto {
namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

/// One lane at a time through the incremental implementation — the
/// reference the SIMD kernel must match bit for bit.
void sha256_many_scalar(const Sha256State* starts,
                        const std::uint8_t* const* data, std::size_t len,
                        std::size_t count, Digest* out) {
  for (std::size_t i = 0; i < count; ++i) {
    Sha256 ctx;
    ctx.restore(starts[i]);
    ctx.update(std::span<const std::uint8_t>(data[i], len));
    out[i] = ctx.finalize();
  }
}

#if defined(LW_SHA_MULTI_X86)

constexpr std::size_t kLanes = 8;

__attribute__((target("avx2"))) inline __m256i rotr8(__m256i x, int n) {
  return _mm256_or_si256(_mm256_srli_epi32(x, n),
                         _mm256_slli_epi32(x, 32 - n));
}

/// Transposes an 8x8 matrix of dwords held one row per register.
__attribute__((target("avx2"))) inline void transpose8(__m256i r[8]) {
  __m256i t0 = _mm256_unpacklo_epi32(r[0], r[1]);
  __m256i t1 = _mm256_unpackhi_epi32(r[0], r[1]);
  __m256i t2 = _mm256_unpacklo_epi32(r[2], r[3]);
  __m256i t3 = _mm256_unpackhi_epi32(r[2], r[3]);
  __m256i t4 = _mm256_unpacklo_epi32(r[4], r[5]);
  __m256i t5 = _mm256_unpackhi_epi32(r[4], r[5]);
  __m256i t6 = _mm256_unpacklo_epi32(r[6], r[7]);
  __m256i t7 = _mm256_unpackhi_epi32(r[6], r[7]);
  __m256i u0 = _mm256_unpacklo_epi64(t0, t2);
  __m256i u1 = _mm256_unpackhi_epi64(t0, t2);
  __m256i u2 = _mm256_unpacklo_epi64(t1, t3);
  __m256i u3 = _mm256_unpackhi_epi64(t1, t3);
  __m256i u4 = _mm256_unpacklo_epi64(t4, t6);
  __m256i u5 = _mm256_unpackhi_epi64(t4, t6);
  __m256i u6 = _mm256_unpacklo_epi64(t5, t7);
  __m256i u7 = _mm256_unpackhi_epi64(t5, t7);
  r[0] = _mm256_permute2x128_si256(u0, u4, 0x20);
  r[1] = _mm256_permute2x128_si256(u1, u5, 0x20);
  r[2] = _mm256_permute2x128_si256(u2, u6, 0x20);
  r[3] = _mm256_permute2x128_si256(u3, u7, 0x20);
  r[4] = _mm256_permute2x128_si256(u0, u4, 0x31);
  r[5] = _mm256_permute2x128_si256(u1, u5, 0x31);
  r[6] = _mm256_permute2x128_si256(u2, u6, 0x31);
  r[7] = _mm256_permute2x128_si256(u3, u7, 0x31);
}

/// Compresses one 64-byte block per lane into the transposed state
/// (state[j] holds word j of all 8 lanes).
__attribute__((target("avx2"))) void sha256_block8(
    __m256i state[8], const std::uint8_t* const blocks[kLanes]) {
  // Big-endian dword byteswap within each lane row.
  const __m256i bswap = _mm256_setr_epi8(
      3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12,  //
      3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12);

  // Message schedule, transposed: w[t] = word t of every lane. Each lane's
  // 64-byte block is two 32-byte rows; two 8x8 transposes produce w[0..7]
  // and w[8..15].
  __m256i w[64];
  for (int half = 0; half < 2; ++half) {
    __m256i rows[8];
    for (int l = 0; l < 8; ++l) {
      rows[l] = _mm256_shuffle_epi8(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
              blocks[l] + 32 * half)),
          bswap);
    }
    transpose8(rows);
    for (int t = 0; t < 8; ++t) w[8 * half + t] = rows[t];
  }
  for (int t = 16; t < 64; ++t) {
    __m256i w15 = w[t - 15];
    __m256i w2 = w[t - 2];
    __m256i s0 = _mm256_xor_si256(_mm256_xor_si256(rotr8(w15, 7), rotr8(w15, 18)),
                                  _mm256_srli_epi32(w15, 3));
    __m256i s1 = _mm256_xor_si256(_mm256_xor_si256(rotr8(w2, 17), rotr8(w2, 19)),
                                  _mm256_srli_epi32(w2, 10));
    w[t] = _mm256_add_epi32(_mm256_add_epi32(w[t - 16], s0),
                            _mm256_add_epi32(w[t - 7], s1));
  }

  __m256i a = state[0], b = state[1], c = state[2], d = state[3];
  __m256i e = state[4], f = state[5], g = state[6], h = state[7];
  for (int t = 0; t < 64; ++t) {
    __m256i big_s1 =
        _mm256_xor_si256(_mm256_xor_si256(rotr8(e, 6), rotr8(e, 11)),
                         rotr8(e, 25));
    __m256i ch = _mm256_xor_si256(_mm256_and_si256(e, f),
                                  _mm256_andnot_si256(e, g));
    __m256i temp1 = _mm256_add_epi32(
        _mm256_add_epi32(_mm256_add_epi32(h, big_s1), ch),
        _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(kK[t])), w[t]));
    __m256i big_s0 =
        _mm256_xor_si256(_mm256_xor_si256(rotr8(a, 2), rotr8(a, 13)),
                         rotr8(a, 22));
    __m256i maj = _mm256_xor_si256(
        _mm256_xor_si256(_mm256_and_si256(a, b), _mm256_and_si256(a, c)),
        _mm256_and_si256(b, c));
    __m256i temp2 = _mm256_add_epi32(big_s0, maj);
    h = g;
    g = f;
    f = e;
    e = _mm256_add_epi32(d, temp1);
    d = c;
    c = b;
    b = a;
    a = _mm256_add_epi32(temp1, temp2);
  }
  state[0] = _mm256_add_epi32(state[0], a);
  state[1] = _mm256_add_epi32(state[1], b);
  state[2] = _mm256_add_epi32(state[2], c);
  state[3] = _mm256_add_epi32(state[3], d);
  state[4] = _mm256_add_epi32(state[4], e);
  state[5] = _mm256_add_epi32(state[5], f);
  state[6] = _mm256_add_epi32(state[6], g);
  state[7] = _mm256_add_epi32(state[7], h);
}

/// Full 8-lane group: same suffix length, same prefix length (asserted by
/// the caller), arbitrary midstates and data pointers.
__attribute__((target("avx2"))) void sha256_group8(
    const Sha256State* starts, const std::uint8_t* const* data,
    std::size_t len, Digest* out) {
  __m256i state[8];
  for (int j = 0; j < 8; ++j) {
    alignas(32) std::uint32_t lane[8];
    for (int l = 0; l < 8; ++l) lane[l] = starts[l].h[j];
    state[j] = _mm256_load_si256(reinterpret_cast<const __m256i*>(lane));
  }

  const std::size_t full_blocks = len / 64;
  const std::size_t rem = len % 64;
  const std::uint8_t* blocks[kLanes];
  for (std::size_t b = 0; b < full_blocks; ++b) {
    for (int l = 0; l < 8; ++l) blocks[l] = data[l] + 64 * b;
    sha256_block8(state, blocks);
  }

  // Padded tail: rem bytes, 0x80, zeros, 64-bit big-endian bit length.
  // Identical layout across lanes because prefix and suffix lengths match.
  const std::uint64_t bit_len = (starts[0].bytes + len) * 8;
  const std::size_t tail_blocks = (rem + 1 + 8 <= 64) ? 1 : 2;
  alignas(32) std::uint8_t tail[kLanes][128];
  for (int l = 0; l < 8; ++l) {
    std::memset(tail[l], 0, sizeof(tail[l]));
    // An empty message may come with a null pointer, which memcpy forbids.
    if (rem != 0) std::memcpy(tail[l], data[l] + 64 * full_blocks, rem);
    tail[l][rem] = 0x80;
    std::uint8_t* lenp = tail[l] + 64 * tail_blocks - 8;
    for (int i = 0; i < 8; ++i) {
      lenp[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
    }
  }
  for (std::size_t b = 0; b < tail_blocks; ++b) {
    for (int l = 0; l < 8; ++l) blocks[l] = tail[l] + 64 * b;
    sha256_block8(state, blocks);
  }

  for (int j = 0; j < 8; ++j) {
    alignas(32) std::uint32_t lane[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane), state[j]);
    for (int l = 0; l < 8; ++l) {
      out[l][4 * j + 0] = static_cast<std::uint8_t>(lane[l] >> 24);
      out[l][4 * j + 1] = static_cast<std::uint8_t>(lane[l] >> 16);
      out[l][4 * j + 2] = static_cast<std::uint8_t>(lane[l] >> 8);
      out[l][4 * j + 3] = static_cast<std::uint8_t>(lane[l]);
    }
  }
}

void sha256_many_avx2(const Sha256State* starts,
                      const std::uint8_t* const* data, std::size_t len,
                      std::size_t count, Digest* out) {
  std::size_t i = 0;
  for (; i + kLanes <= count; i += kLanes) {
    // Lanes of one SIMD group must share the prefix length (they always
    // do in practice: HMAC midstates are one block deep). A mixed group
    // falls back to the scalar loop for those lanes.
    bool same_prefix = true;
    for (std::size_t l = 1; l < kLanes; ++l) {
      same_prefix &= starts[i + l].bytes == starts[i].bytes;
    }
    if (!same_prefix) {
      sha256_many_scalar(starts + i, data + i, len, kLanes, out + i);
      continue;
    }
    sha256_group8(starts + i, data + i, len, out + i);
  }
  if (i < count) sha256_many_scalar(starts + i, data + i, len, count - i, out + i);
}

#endif  // LW_SHA_MULTI_X86

using ManyFn = void (*)(const Sha256State*, const std::uint8_t* const*,
                        std::size_t, std::size_t, Digest*);

ManyFn resolve_engine() {
#if defined(LW_SHA_MULTI_X86)
  if (__builtin_cpu_supports("avx2")) return sha256_many_avx2;
#endif
  return sha256_many_scalar;
}

ManyFn engine() {
  static const ManyFn fn = resolve_engine();
  return fn;
}

}  // namespace

std::size_t sha256_multi_lanes() {
#if defined(LW_SHA_MULTI_X86)
  if (engine() == sha256_many_avx2) return kLanes;
#endif
  return 1;
}

bool sha256_multi_simd() { return sha256_multi_lanes() > 1; }

void sha256_many(const Sha256State* starts, const std::uint8_t* const* data,
                 std::size_t len, std::size_t count, Digest* out) {
  if (count == 0) return;
  engine()(starts, data, len, count, out);
}

}  // namespace lw::crypto
