#include "crypto/key_manager.h"

#include <algorithm>
#include <array>

namespace lw::crypto {
namespace {

void append_u64(Key& out, std::uint64_t v) {
  for (int i = 7; i >= 0; --i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

HmacKey make_master_state(std::uint64_t master_secret) {
  Key master;
  append_u64(master, master_secret);
  return HmacKey(master);
}

/// "pairwise:" || u32(lo) || u32(hi), in a stack buffer — the derivation
/// label never touches the heap.
constexpr std::size_t kLabelBytes = 9 + 4 + 4;

std::array<std::uint8_t, kLabelBytes> pair_label(NodeId lo, NodeId hi) {
  std::array<std::uint8_t, kLabelBytes> label{'p', 'a', 'i', 'r', 'w',
                                              'i', 's', 'e', ':'};
  for (int i = 0; i < 4; ++i) {
    label[9 + i] = static_cast<std::uint8_t>((lo >> (8 * (3 - i))) & 0xFF);
    label[13 + i] = static_cast<std::uint8_t>((hi >> (8 * (3 - i))) & 0xFF);
  }
  return label;
}

}  // namespace

KeyManager::KeyManager(std::uint64_t master_secret)
    : master_state_(make_master_state(master_secret)) {}

Key KeyManager::pairwise_key(NodeId a, NodeId b) const {
  const NodeId lo = std::min(a, b);
  const NodeId hi = std::max(a, b);
  const auto label = pair_label(lo, hi);
  Digest digest = master_state_.digest(std::span<const std::uint8_t>(label));
  return Key(digest.begin(), digest.end());
}

HmacKey KeyManager::derive_state(NodeId lo, NodeId hi) const {
  const auto label = pair_label(lo, hi);
  const Digest digest =
      master_state_.digest(std::span<const std::uint8_t>(label));
  return HmacKey(std::span<const std::uint8_t>(digest));
}

const HmacKey& KeyManager::pairwise_state(NodeId a, NodeId b) const {
  const NodeId lo = std::min(a, b);
  const NodeId hi = std::max(a, b);
  const std::uint64_t pair =
      (static_cast<std::uint64_t>(lo) << 32) | static_cast<std::uint64_t>(hi);
  auto it = states_.find(pair);
  if (it == states_.end()) {
    it = states_.emplace(pair, derive_state(lo, hi)).first;
  }
  return it->second;
}

AuthTag KeyManager::sign(NodeId self, NodeId peer,
                         std::string_view message) const {
  return pairwise_state(self, peer).tag(message);
}

bool KeyManager::verify(NodeId a, NodeId b, std::string_view message,
                        const AuthTag& tag) const {
  return pairwise_state(a, b).verify(message, tag);
}

AuthTag forge_tag(std::uint64_t attacker_state) {
  AuthTag tag;
  for (std::size_t i = 0; i < tag.size(); ++i) {
    attacker_state =
        attacker_state * 6364136223846793005ull + 1442695040888963407ull;
    tag[i] = static_cast<std::uint8_t>(attacker_state >> 56);
  }
  return tag;
}

}  // namespace lw::crypto
