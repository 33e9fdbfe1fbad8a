// Pairwise key pre-distribution semantics.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "crypto/key_manager.h"

namespace lw::crypto {
namespace {

TEST(KeyManager, PairwiseKeySymmetric) {
  KeyManager keys(123);
  EXPECT_EQ(keys.pairwise_key(3, 9), keys.pairwise_key(9, 3));
}

TEST(KeyManager, DistinctPairsDistinctKeys) {
  KeyManager keys(123);
  std::set<Key> seen;
  for (NodeId a = 0; a < 10; ++a) {
    for (NodeId b = a + 1; b < 10; ++b) {
      seen.insert(keys.pairwise_key(a, b));
    }
  }
  EXPECT_EQ(seen.size(), 45u);
}

TEST(KeyManager, DifferentDeploymentsDifferentKeys) {
  KeyManager a(1);
  KeyManager b(2);
  EXPECT_NE(a.pairwise_key(0, 1), b.pairwise_key(0, 1));
}

TEST(KeyManager, SignVerifyRoundTrip) {
  KeyManager keys(7);
  AuthTag tag = keys.sign(2, 5, "hello-reply|2|5|1");
  EXPECT_TRUE(keys.verify(2, 5, "hello-reply|2|5|1", tag));
  EXPECT_TRUE(keys.verify(5, 2, "hello-reply|2|5|1", tag))
      << "verification must work from either end of the pair";
}

TEST(KeyManager, CrossPairVerificationFails) {
  KeyManager keys(7);
  AuthTag tag = keys.sign(2, 5, "message");
  EXPECT_FALSE(keys.verify(2, 6, "message", tag))
      << "a tag for pair {2,5} must not verify under pair {2,6}";
}

TEST(KeyManager, TamperedMessageFails) {
  KeyManager keys(7);
  AuthTag tag = keys.sign(2, 5, "original");
  EXPECT_FALSE(keys.verify(2, 5, "tampered", tag));
}

TEST(KeyManager, OutsiderForgeryFails) {
  KeyManager keys(7);
  // An external attacker without keys can only guess 8-byte tags.
  for (std::uint64_t attempt = 0; attempt < 64; ++attempt) {
    EXPECT_FALSE(keys.verify(2, 5, "alert|accused=3", forge_tag(attempt)));
  }
}

TEST(KeyManager, KeyLengthIsDigestLength) {
  KeyManager keys(7);
  EXPECT_EQ(keys.pairwise_key(0, 1).size(), 32u);
}

TEST(KeyManager, SignKnownAnswer) {
  // Pins the tag bytes themselves: traces carry no tags, so a key
  // derivation or HMAC change that stays self-consistent would otherwise
  // pass every golden check. {3, 40} lies beyond the reserve_nodes hint,
  // which must not matter.
  KeyManager keys(0xFEEDFACEu);
  keys.reserve_nodes(16);
  const std::string message = "alert|accused=7|guard=3";
  const AuthTag dense = {0x56, 0x16, 0xb3, 0x76, 0xe4, 0x10, 0xa5, 0x73};
  const AuthTag overflow = {0x91, 0xa7, 0x17, 0xd6, 0x9c, 0x96, 0x5d, 0x66};
  EXPECT_EQ(keys.sign(3, 9, message), dense);
  EXPECT_EQ(keys.sign(40, 3, message), overflow);
}

TEST(KeyManager, CachedSignMatchesDerivedKeyHmac) {
  // sign() runs through the per-pair midstate cache; it must produce the
  // same tag as a from-scratch HMAC under the derived pairwise key, on the
  // first call (cache miss) and on repeats (cache hit).
  KeyManager keys(7);
  const Key pair_key = keys.pairwise_key(2, 5);
  const AuthTag expected = make_tag(pair_key, "cached-path");
  EXPECT_EQ(keys.sign(2, 5, "cached-path"), expected);
  EXPECT_EQ(keys.sign(2, 5, "cached-path"), expected) << "cache-hit path";
  EXPECT_EQ(keys.sign(5, 2, "cached-path"), expected)
      << "pair cache must be order-insensitive";
}

TEST(KeyManager, CachedVerifyRoundTripManyPairs) {
  KeyManager keys(12);
  for (NodeId a = 0; a < 12; ++a) {
    for (NodeId b = a + 1; b < 12; ++b) {
      const std::string message =
          "alert|" + std::to_string(a) + "|" + std::to_string(b);
      const AuthTag tag = keys.sign(a, b, message);
      EXPECT_TRUE(keys.verify(b, a, message, tag));
      EXPECT_FALSE(keys.verify(b, a, message + "x", tag));
    }
  }
}

TEST(KeyManager, CachedStateSurvivesGrowth) {
  // A held pairwise_state reference must stay valid while thousands of
  // further pairs are cached (the pair map rehashes several times), with
  // and without the reserve_nodes hint, and tags must not depend on it.
  const std::string message = "growth";
  const AuthTag expected = KeyManager(42).sign(0, 1, message);
  for (const bool hint : {false, true}) {
    KeyManager keys(42);
    if (hint) keys.reserve_nodes(16);
    const HmacKey& held = keys.pairwise_state(0, 1);
    ASSERT_EQ(held.tag(message), expected);
    for (NodeId a = 1; a < 70; ++a) {
      for (NodeId b = a + 1; b < 70; ++b) (void)keys.pairwise_state(a, b);
    }
    EXPECT_EQ(&keys.pairwise_state(1, 0), &held) << "hint " << hint;
    EXPECT_EQ(held.tag(message), expected) << "hint " << hint;
  }
}

}  // namespace
}  // namespace lw::crypto
