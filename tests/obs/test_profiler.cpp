// RunProfiler edge cases: ScopedTimer nesting (including re-entrant timers
// on the SAME layer) and the null-profiler no-op contract.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "obs/profiler.h"

namespace lw::obs {
namespace {

constexpr std::size_t idx(Layer layer) {
  return static_cast<std::size_t>(layer);
}

double total_self_seconds(const RunProfiler& profiler) {
  double total = 0.0;
  for (double seconds : profiler.self_seconds()) total += seconds;
  return total;
}

// Timing assertions below use only preemption-safe invariants — lower
// bounds (sleeping inside a timer can only grow its elapsed time) and
// "sum of self times <= externally measured elapsed" (self times
// partition the outermost timer's elapsed, which our measurement spans).
// Absolute upper bounds on individual layers would flake when ctest runs
// several suites on one contended core.
void rest(std::chrono::milliseconds duration) {
  std::this_thread::sleep_for(duration);
}

TEST(Profiler, NullProfilerTimersAreNoOps) {
  // Emit sites construct timers unconditionally; a null profiler must cost
  // nothing and crash nowhere, including when nested.
  ScopedTimer outer(nullptr, Layer::kRouting);
  ScopedTimer inner(nullptr, Layer::kPhy);
  SUCCEED();
}

TEST(Profiler, ChildTimeIsSubtractedFromParent) {
  RunProfiler profiler;
  const auto begin = std::chrono::steady_clock::now();
  {
    ScopedTimer routing(&profiler, Layer::kRouting);
    rest(std::chrono::milliseconds(5));
    {
      ScopedTimer phy(&profiler, Layer::kPhy);
      rest(std::chrono::milliseconds(10));
    }
  }
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - begin)
                             .count();
  const auto& self = profiler.self_seconds();
  EXPECT_GE(self[idx(Layer::kPhy)], 0.009);
  EXPECT_GE(self[idx(Layer::kRouting)], 0.004);
  // Double-counting the PHY child into routing would make the self times
  // sum past the real elapsed span.
  EXPECT_LE(total_self_seconds(profiler), elapsed * 1.001);
}

TEST(Profiler, ReentrantTimersOnSameLayerDoNotDoubleCount) {
  // A handler on layer L that re-enters another timed section of layer L
  // (e.g. routing forwarding recursing into route maintenance). The inner
  // elapsed time is subtracted from the outer attribution and re-added by
  // the inner timer, so the layer's self time equals total elapsed once —
  // not once per nesting level.
  RunProfiler profiler;
  const auto begin = std::chrono::steady_clock::now();
  {
    ScopedTimer outer(&profiler, Layer::kRouting);
    rest(std::chrono::milliseconds(4));
    {
      ScopedTimer inner(&profiler, Layer::kRouting);
      rest(std::chrono::milliseconds(4));
      {
        ScopedTimer innermost(&profiler, Layer::kRouting);
        rest(std::chrono::milliseconds(4));
      }
    }
  }
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - begin)
                             .count();
  const double attributed = profiler.self_seconds()[idx(Layer::kRouting)];
  // The full 12ms lands on the layer exactly once: double counting the
  // nesting levels would attribute ~2-3x the real elapsed span.
  EXPECT_GE(attributed, 0.011);
  EXPECT_LE(attributed, elapsed * 1.001);
  EXPECT_EQ(total_self_seconds(profiler), attributed);
}

TEST(Profiler, SiblingTimersRestoreTheNestingChain) {
  // Two sequential children under one parent: the second child must see
  // the parent (not the destroyed first child) as its parent.
  RunProfiler profiler;
  const auto begin = std::chrono::steady_clock::now();
  {
    ScopedTimer parent(&profiler, Layer::kMac);
    {
      ScopedTimer first(&profiler, Layer::kPhy);
      rest(std::chrono::milliseconds(3));
    }
    {
      ScopedTimer second(&profiler, Layer::kPhy);
      rest(std::chrono::milliseconds(3));
    }
    rest(std::chrono::milliseconds(2));
  }
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - begin)
                             .count();
  const auto& self = profiler.self_seconds();
  EXPECT_GE(self[idx(Layer::kPhy)], 0.005);
  EXPECT_GE(self[idx(Layer::kMac)], 0.001);
  // A broken chain (second sibling parented to the destroyed first one)
  // would lose the child subtraction and double-count into MAC.
  EXPECT_LE(total_self_seconds(profiler), elapsed * 1.001);
}

}  // namespace
}  // namespace lw::obs
