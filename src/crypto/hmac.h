// HMAC-SHA-256 per RFC 2104 / FIPS 198-1.
//
// Used to authenticate neighbor-discovery replies, neighbor-list broadcasts,
// and wormhole alert messages under pairwise shared keys.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "crypto/sha256.h"

namespace lw::crypto {

/// A symmetric key (arbitrary length; keys longer than the SHA-256 block
/// size are hashed down per the HMAC definition).
using Key = std::vector<std::uint8_t>;

/// Truncated authentication tag carried in packets. The paper's cost model
/// budgets a few bytes per authenticated field, so packets carry 8-byte tags.
using AuthTag = std::array<std::uint8_t, 8>;

/// A prepared HMAC-SHA-256 key: the ipad and opad blocks are absorbed once
/// at construction and their compression midstates cached, so each tag
/// costs only the message blocks plus two finishes instead of rebuilding
/// and rehashing both pads. Produces bit-identical digests to hmac_sha256.
class HmacKey {
 public:
  explicit HmacKey(std::span<const std::uint8_t> key);

  /// HMAC-SHA-256(key, message).
  Digest digest(std::span<const std::uint8_t> message) const;
  Digest digest(std::string_view message) const;

  /// First 8 bytes of the digest (the packet tag format).
  AuthTag tag(std::string_view message) const;

  /// Verifies a truncated tag (constant time over the tag bytes).
  bool verify(std::string_view message, const AuthTag& tag) const;

  /// Cached pad midstates, exposed so HmacBatch can run many keys through
  /// the multi-buffer SHA-256 engine. Not part of the signing API.
  const Sha256State& inner_state() const { return inner_; }
  const Sha256State& outer_state() const { return outer_; }

 private:
  Sha256State inner_;
  Sha256State outer_;
};

/// Batched HMAC over one shared message and many prepared keys.
///
/// The simulator's hot crypto shapes are fan-outs: one alert payload
/// tagged under a pairwise key per recipient, one neighbor list signed for
/// every neighbor. Each HMAC is two SHA-256 finishes from cached
/// midstates, independent across keys — so a batch of k keys becomes two
/// k-lane sha256_many sweeps (inner pass over the message, outer pass
/// over the 32-byte inner digests) instead of 2k serial hashes.
///
/// Reuse one instance and clear() between batches: the scratch vectors
/// keep their capacity.
class HmacBatch {
 public:
  /// Queues a key; tags come out of sign_into in queue order.
  void push(const HmacKey& key);

  void clear();

  /// One sweep: out[i] = HMAC tag of `message` under queued key i.
  /// `out` must hold one tag per queued key. The queue is left intact
  /// (clear() to start the next batch).
  void sign_into(std::string_view message, AuthTag* out);

 private:
  std::vector<Sha256State> inner_;
  std::vector<Sha256State> outer_;
  // Scratch recycled across batches.
  std::vector<Digest> digests_;
  std::vector<Digest> inner_digests_;
  std::vector<const std::uint8_t*> ptrs_;
};

/// Computes HMAC-SHA-256(key, message).
Digest hmac_sha256(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> message);
Digest hmac_sha256(std::span<const std::uint8_t> key, std::string_view message);

/// Constant-time digest comparison (avoids early-exit timing leaks; the
/// simulation does not need this property, but a credible crypto substrate
/// should have it).
bool digests_equal(const Digest& a, const Digest& b);

/// First 8 bytes of the HMAC digest.
AuthTag make_tag(std::span<const std::uint8_t> key, std::string_view message);

/// Verifies a truncated tag (constant time over the tag bytes).
bool verify_tag(std::span<const std::uint8_t> key, std::string_view message,
                const AuthTag& tag);

}  // namespace lw::crypto
