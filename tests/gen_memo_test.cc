#include "src/util/gen_memo.h"

#include <gtest/gtest.h>

#include <string>

namespace crius {
namespace {

constexpr MemoStamp kGen1{1, 0};
constexpr MemoStamp kGen2{1, 1};
constexpr MemoStamp kOtherCluster{2, 0};

TEST(GenMemoTest, FindHitsOnlyMatchingStamp) {
  GenStampedMemo<int, std::string> memo;
  memo.PutIfAbsent(7, kGen1, "v1");
  ASSERT_NE(memo.Find(7, kGen1), nullptr);
  EXPECT_EQ(*memo.Find(7, kGen1), "v1");
  EXPECT_EQ(memo.Find(7, kGen2), nullptr);
  EXPECT_EQ(memo.Find(7, kOtherCluster), nullptr);
  EXPECT_EQ(memo.Find(8, kGen1), nullptr);
}

TEST(GenMemoTest, PutIfAbsentFirstWinsOnSameStamp) {
  GenStampedMemo<int, std::string> memo;
  const std::string& first = memo.PutIfAbsent(1, kGen1, "first");
  const std::string& second = memo.PutIfAbsent(1, kGen1, "second");
  EXPECT_EQ(first, "first");
  EXPECT_EQ(second, "first");
  EXPECT_EQ(&first, &second);  // same stable node
}

TEST(GenMemoTest, PutIfAbsentOverwritesStaleEntry) {
  GenStampedMemo<int, std::string> memo;
  memo.PutIfAbsent(1, kGen1, "old");
  EXPECT_EQ(memo.PutIfAbsent(1, kGen2, "new"), "new");
  EXPECT_EQ(memo.Find(1, kGen1), nullptr);
  EXPECT_EQ(*memo.Find(1, kGen2), "new");
  EXPECT_EQ(memo.size(), 1u);
}

TEST(GenMemoTest, RestampMovesEntryWithoutRecompute) {
  GenStampedMemo<int, std::string> memo;
  memo.PutIfAbsent(1, kGen1, "kept");
  EXPECT_TRUE(memo.Restamp(1, kGen2));
  EXPECT_EQ(memo.Find(1, kGen1), nullptr);
  EXPECT_EQ(*memo.Find(1, kGen2), "kept");
  EXPECT_FALSE(memo.Restamp(99, kGen2));
}

TEST(GenMemoTest, EraseAndEvictIf) {
  GenStampedMemo<int, std::string> memo;
  for (int i = 0; i < 10; ++i) {
    memo.PutIfAbsent(i, i < 5 ? kGen1 : kGen2, "v");
  }
  EXPECT_TRUE(memo.Erase(0));
  EXPECT_FALSE(memo.Erase(0));
  EXPECT_EQ(memo.size(), 9u);
  // Evict everything still stamped kGen1.
  const size_t evicted =
      memo.EvictIf([](int, const MemoStamp& stamp) { return stamp == kGen1; });
  EXPECT_EQ(evicted, 4u);
  EXPECT_EQ(memo.size(), 5u);
  EXPECT_TRUE(memo.Contains(7));
  EXPECT_FALSE(memo.Contains(3));
}

TEST(GenMemoTest, ClearEmptiesEveryEntry) {
  GenStampedMemo<int, int> memo;
  for (int i = 0; i < 64; ++i) {
    memo.PutIfAbsent(i, kGen1, int{i});
  }
  EXPECT_EQ(memo.size(), 64u);
  memo.Clear();
  EXPECT_EQ(memo.size(), 0u);
  EXPECT_TRUE(memo.empty());
}

}  // namespace
}  // namespace crius
