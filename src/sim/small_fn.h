// Move-only callable with inline storage for the event-queue hot path.
//
// std::function heap-allocates any capture beyond ~16 bytes, which made
// every scheduled PHY delivery (this + radio + shared packet + flags) cost
// a malloc/free pair. SmallFn stores callables up to kInlineBytes in the
// event record itself; larger captures (e.g. MAC closures that carry a
// whole Packet) transparently fall back to the heap, so behavior never
// depends on capture size.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace lw::sim {

class SmallFn {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  SmallFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFn(F&& fn) {  // NOLINT: implicit by design, mirrors std::function
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      heap_ = new Fn(std::forward<F>(fn));
      ops_ = &kHeapOps<Fn>;
    }
  }

  SmallFn(SmallFn&& other) noexcept { move_from(other); }
  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      destroy();
      move_from(other);
    }
    return *this;
  }
  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;
  ~SmallFn() { destroy(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(*this); }

 private:
  struct Ops {
    void (*invoke)(SmallFn&);
    void (*move)(SmallFn& dst, SmallFn& src) noexcept;
    void (*destroy)(SmallFn&) noexcept;
  };

  template <typename Fn>
  Fn* inline_target() {
    return std::launder(reinterpret_cast<Fn*>(storage_));
  }

  template <typename Fn>
  static void inline_invoke(SmallFn& f) {
    (*f.inline_target<Fn>())();
  }
  template <typename Fn>
  static void inline_move(SmallFn& dst, SmallFn& src) noexcept {
    ::new (static_cast<void*>(dst.storage_))
        Fn(std::move(*src.inline_target<Fn>()));
    src.inline_target<Fn>()->~Fn();
  }
  template <typename Fn>
  static void inline_destroy(SmallFn& f) noexcept {
    f.inline_target<Fn>()->~Fn();
  }

  template <typename Fn>
  static void heap_invoke(SmallFn& f) {
    (*static_cast<Fn*>(f.heap_))();
  }
  static void heap_move(SmallFn& dst, SmallFn& src) noexcept {
    dst.heap_ = src.heap_;
  }
  template <typename Fn>
  static void heap_destroy(SmallFn& f) noexcept {
    delete static_cast<Fn*>(f.heap_);
  }

  template <typename Fn>
  static constexpr Ops kInlineOps = {&inline_invoke<Fn>, &inline_move<Fn>,
                                     &inline_destroy<Fn>};

  template <typename Fn>
  static constexpr Ops kHeapOps = {&heap_invoke<Fn>, &heap_move,
                                   &heap_destroy<Fn>};

  void move_from(SmallFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->move(*this, other);
      other.ops_ = nullptr;
    }
  }

  void destroy() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(*this);
      ops_ = nullptr;
    }
  }

  union {
    alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
    void* heap_;
  };
  const Ops* ops_ = nullptr;
};

}  // namespace lw::sim
