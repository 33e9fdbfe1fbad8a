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

 private:
  Sha256State inner_;
  Sha256State outer_;
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
