#include "crypto/hmac.h"

#include <algorithm>
#include <array>

namespace lw::crypto {
namespace {

constexpr std::size_t kBlockSize = 64;

std::array<std::uint8_t, kBlockSize> normalize_key(
    std::span<const std::uint8_t> key) {
  std::array<std::uint8_t, kBlockSize> block{};
  if (key.size() > kBlockSize) {
    Digest digest = Sha256::hash(key);
    std::copy(digest.begin(), digest.end(), block.begin());
  } else {
    std::copy(key.begin(), key.end(), block.begin());
  }
  return block;
}

}  // namespace

HmacKey::HmacKey(std::span<const std::uint8_t> key) {
  auto block = normalize_key(key);

  std::array<std::uint8_t, kBlockSize> pad;
  Sha256 ctx;
  for (std::size_t i = 0; i < kBlockSize; ++i) {
    pad[i] = static_cast<std::uint8_t>(block[i] ^ 0x36);
  }
  ctx.update(pad);
  inner_ = ctx.save();

  for (std::size_t i = 0; i < kBlockSize; ++i) {
    pad[i] = static_cast<std::uint8_t>(block[i] ^ 0x5c);
  }
  ctx.reset();
  ctx.update(pad);
  outer_ = ctx.save();
}

Digest HmacKey::digest(std::span<const std::uint8_t> message) const {
  Sha256 ctx;
  ctx.restore(inner_);
  ctx.update(message);
  Digest inner_digest = ctx.finalize();

  ctx.restore(outer_);
  ctx.update(inner_digest);
  return ctx.finalize();
}

Digest HmacKey::digest(std::string_view message) const {
  return digest(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(message.data()), message.size()));
}

AuthTag HmacKey::tag(std::string_view message) const {
  Digest full = digest(message);
  AuthTag out;
  std::copy_n(full.begin(), out.size(), out.begin());
  return out;
}

bool HmacKey::verify(std::string_view message, const AuthTag& tag) const {
  AuthTag expected = this->tag(message);
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < tag.size(); ++i) diff |= tag[i] ^ expected[i];
  return diff == 0;
}

Digest hmac_sha256(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> message) {
  return HmacKey(key).digest(message);
}

Digest hmac_sha256(std::span<const std::uint8_t> key,
                   std::string_view message) {
  return hmac_sha256(
      key, std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(message.data()),
               message.size()));
}

bool digests_equal(const Digest& a, const Digest& b) {
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

AuthTag make_tag(std::span<const std::uint8_t> key, std::string_view message) {
  Digest digest = hmac_sha256(key, message);
  AuthTag tag;
  std::copy_n(digest.begin(), tag.size(), tag.begin());
  return tag;
}

bool verify_tag(std::span<const std::uint8_t> key, std::string_view message,
                const AuthTag& tag) {
  AuthTag expected = make_tag(key, message);
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < tag.size(); ++i) diff |= tag[i] ^ expected[i];
  return diff == 0;
}

}  // namespace lw::crypto
