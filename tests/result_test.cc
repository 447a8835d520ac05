// Value-category tests for Result<T>.

#include "support/result.h"

#include <gtest/gtest.h>

#include <memory>

namespace lfi {
namespace {

struct CopyCounter {
  static inline int copies = 0;
  static inline int moves = 0;
  CopyCounter() = default;
  CopyCounter(const CopyCounter&) { ++copies; }
  CopyCounter(CopyCounter&&) noexcept { ++moves; }
  CopyCounter& operator=(const CopyCounter&) = default;
  CopyCounter& operator=(CopyCounter&&) = default;
};

TEST(Result, RvalueDereferenceMoves) {
  Result<CopyCounter> r = CopyCounter{};
  CopyCounter::copies = CopyCounter::moves = 0;
  [[maybe_unused]] CopyCounter taken = *std::move(r);
  EXPECT_EQ(CopyCounter::copies, 0);
  EXPECT_EQ(CopyCounter::moves, 1);

  Result<CopyCounter> kept = CopyCounter{};
  CopyCounter::copies = CopyCounter::moves = 0;
  [[maybe_unused]] CopyCounter copied = *kept;
  EXPECT_EQ(CopyCounter::copies, 1);
  EXPECT_EQ(CopyCounter::moves, 0);

  // A move-only value can be taken out at all.
  Result<std::unique_ptr<int>> p = std::make_unique<int>(7);
  const std::unique_ptr<int> owned = *std::move(p);
  EXPECT_EQ(*owned, 7);
}

}  // namespace
}  // namespace lfi
