// SIMD-vs-scalar equivalence for the multi-buffer SHA-256 engine and the
// batched HMAC built on it. The multi-buffer kernel must be bit-identical
// to the incremental Sha256 class for every message length (block
// boundaries, padding spillover) and every batch size (full 8-lane groups,
// scalar tails). Runs under ASan/UBSan in CI like the rest of the suite.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/hmac.h"
#include "crypto/key_manager.h"
#include "crypto/sha256.h"
#include "crypto/sha256_multi.h"
#include "util/rng.h"

namespace lw::crypto {
namespace {

/// Deterministic pseudo-random bytes (no seeding subtleties in tests).
std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return out;
}

Sha256State fresh_state() {
  Sha256 ctx;
  return ctx.save();
}

/// One-block-deep midstate (the HMAC pad shape).
Sha256State pad_state(std::uint8_t fill) {
  std::array<std::uint8_t, 64> pad;
  pad.fill(fill);
  Sha256 ctx;
  ctx.update(pad);
  return ctx.save();
}

TEST(Sha256Multi, ReportsAnEngine) {
  EXPECT_GE(sha256_multi_lanes(), 1u);
  if (sha256_multi_simd()) {
    EXPECT_EQ(sha256_multi_lanes(), 8u);
  }
}

TEST(Sha256Multi, MatchesScalarAcrossLengthsAndCounts) {
  Rng rng(0x5EEDu);
  // Lengths probe padding edges: empty, sub-block, exact blocks, the
  // 55/56/63/64 pad boundaries, multi-block.
  const std::size_t lengths[] = {0,  1,  3,  31,  55,  56,  57, 63,
                                 64, 65, 96, 127, 128, 200, 513};
  for (std::size_t len : lengths) {
    for (std::size_t count = 1; count <= 9; ++count) {
      std::vector<std::vector<std::uint8_t>> messages;
      std::vector<const std::uint8_t*> ptrs;
      std::vector<Sha256State> starts;
      for (std::size_t i = 0; i < count; ++i) {
        messages.push_back(random_bytes(rng, len));
        ptrs.push_back(messages.back().data());
        starts.push_back(fresh_state());
      }
      std::vector<Digest> got(count);
      sha256_many(starts.data(), ptrs.data(), len, count, got.data());
      for (std::size_t i = 0; i < count; ++i) {
        const Digest want = Sha256::hash(
            std::span<const std::uint8_t>(messages[i].data(), len));
        EXPECT_EQ(got[i], want) << "len=" << len << " count=" << count
                                << " lane=" << i;
      }
    }
  }
}

TEST(Sha256Multi, ResumesMidstates) {
  Rng rng(0xABCDu);
  // Lanes resume from one-block-deep midstates (the HMAC shape): the
  // padding must account for the absorbed prefix length.
  for (std::size_t len : {0u, 8u, 32u, 64u, 100u}) {
    constexpr std::size_t kCount = 8;
    std::vector<std::vector<std::uint8_t>> messages;
    std::vector<const std::uint8_t*> ptrs;
    std::vector<Sha256State> starts;
    for (std::size_t i = 0; i < kCount; ++i) {
      messages.push_back(random_bytes(rng, len));
      ptrs.push_back(messages.back().data());
      starts.push_back(pad_state(static_cast<std::uint8_t>(0x36 + i)));
    }
    std::vector<Digest> got(kCount);
    sha256_many(starts.data(), ptrs.data(), len, kCount, got.data());
    for (std::size_t i = 0; i < kCount; ++i) {
      Sha256 ctx;
      ctx.restore(starts[i]);
      ctx.update(std::span<const std::uint8_t>(messages[i].data(), len));
      EXPECT_EQ(got[i], ctx.finalize()) << "len=" << len << " lane=" << i;
    }
  }
}

TEST(Sha256Multi, SharedPayloadAcrossLanes) {
  // The fan-out signing shape: every lane hashes the SAME bytes after a
  // different midstate; data pointers alias.
  Rng rng(0x1234u);
  const auto payload = random_bytes(rng, 77);
  constexpr std::size_t kCount = 11;  // full group + scalar tail
  std::vector<const std::uint8_t*> ptrs(kCount, payload.data());
  std::vector<Sha256State> starts;
  for (std::size_t i = 0; i < kCount; ++i) {
    starts.push_back(pad_state(static_cast<std::uint8_t>(i * 7 + 1)));
  }
  std::vector<Digest> got(kCount);
  sha256_many(starts.data(), ptrs.data(), payload.size(), kCount, got.data());
  for (std::size_t i = 0; i < kCount; ++i) {
    Sha256 ctx;
    ctx.restore(starts[i]);
    ctx.update(std::span<const std::uint8_t>(payload.data(), payload.size()));
    EXPECT_EQ(got[i], ctx.finalize()) << "lane=" << i;
  }
}

TEST(HmacBatchTest, SignMatchesSerialSign) {
  Rng rng(0x77u);
  for (std::size_t count : {1u, 2u, 7u, 8u, 9u, 16u, 23u}) {
    std::vector<HmacKey> keys;
    HmacBatch batch;
    for (std::size_t i = 0; i < count; ++i) {
      const auto key_bytes = random_bytes(rng, 8 + i % 90);
      keys.emplace_back(std::span<const std::uint8_t>(key_bytes));
      batch.push(keys.back());
    }
    const std::string message = "batch-payload|" + std::to_string(count);
    std::vector<AuthTag> got(count);
    batch.sign_into(message, got.data());
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(got[i], keys[i].tag(message)) << "count=" << count
                                              << " lane=" << i;
    }
  }
}

TEST(KeyManagerBatch, SignBatchMatchesSerial) {
  KeyManager keys(0xFEEDFACEu);
  keys.reserve_nodes(32);
  const std::string message = "alert|accused=7|guard=3";
  std::vector<NodeId> peers = {0, 1, 5, 9, 12, 13, 14, 20, 21, 31};
  std::vector<AuthTag> got(peers.size());
  keys.sign_batch(3, peers, message, got.data());
  for (std::size_t i = 0; i < peers.size(); ++i) {
    EXPECT_EQ(got[i], keys.sign(3, peers[i], message)) << i;
    EXPECT_TRUE(keys.verify(3, peers[i], message, got[i]));
  }
}

TEST(KeyManagerDenseCache, MatchesUnreservedBehavior) {
  // The dense pair table is a cache layout change only: keys, tags and
  // verification outcomes must be identical with and without reservation,
  // and across the dense/overflow boundary.
  KeyManager dense(42);
  dense.reserve_nodes(16);
  KeyManager plain(42);
  const std::string message = "equivalence";
  for (NodeId a = 0; a < 20; ++a) {
    for (NodeId b = a + 1; b < 20; b += 3) {
      EXPECT_EQ(dense.pairwise_key(a, b), plain.pairwise_key(a, b));
      EXPECT_EQ(dense.sign(a, b, message), plain.sign(b, a, message));
      EXPECT_TRUE(plain.verify(a, b, message, dense.sign(a, b, message)));
    }
  }
  // Reference stability: holding one cached state across many new
  // insertions must stay valid (deque-backed storage).
  const HmacKey& held = dense.pairwise_state(0, 1);
  const AuthTag before = held.tag(message);
  for (NodeId b = 2; b < 16; ++b) (void)dense.pairwise_state(0, b);
  EXPECT_EQ(held.tag(message), before);
}

}  // namespace
}  // namespace lw::crypto
