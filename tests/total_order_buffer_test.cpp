#include "msg/total_order_buffer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace esr::msg {
namespace {

/// Pops every contiguous payload, as the buffer's callers do.
std::vector<int> Drain(TotalOrderBuffer<int>& buffer) {
  std::vector<int> released;
  while (buffer.Head() != nullptr) released.push_back(buffer.Pop());
  return released;
}

TEST(TotalOrderBufferTest, ReleasesInOrderDespiteArrivalOrder) {
  TotalOrderBuffer<int> buffer;
  EXPECT_TRUE(buffer.Offer(3, 30));
  EXPECT_TRUE(buffer.Offer(1, 10));
  EXPECT_EQ(Drain(buffer), (std::vector<int>{10}));
  EXPECT_TRUE(buffer.Offer(2, 20));
  EXPECT_EQ(Drain(buffer), (std::vector<int>{20, 30}));
  EXPECT_EQ(buffer.Watermark(), 3);
  EXPECT_EQ(buffer.Head(), nullptr);
}

TEST(TotalOrderBufferTest, DuplicatesIgnored) {
  TotalOrderBuffer<int> buffer;
  EXPECT_TRUE(buffer.Offer(2, 20));
  EXPECT_FALSE(buffer.Offer(2, 21));  // held: the first arrival wins
  EXPECT_TRUE(buffer.Offer(1, 10));
  EXPECT_FALSE(buffer.Offer(1, 11));
  EXPECT_EQ(Drain(buffer), (std::vector<int>{10, 20}));
}

TEST(TotalOrderBufferTest, LateDuplicateOfReleasedSeqIgnored) {
  TotalOrderBuffer<int> buffer;
  buffer.Offer(1, 10);
  buffer.Offer(2, 20);
  Drain(buffer);
  EXPECT_FALSE(buffer.Offer(1, 11));  // already released
  EXPECT_EQ(buffer.Head(), nullptr);
  EXPECT_TRUE(buffer.Empty());
  EXPECT_EQ(buffer.Watermark(), 2);
}

TEST(TotalOrderBufferTest, RefusedOfferLeavesPayloadUntouched) {
  TotalOrderBuffer<std::string> buffer;
  std::string first = "first";
  std::string second = "second";
  EXPECT_TRUE(buffer.Offer(1, std::move(first)));
  EXPECT_FALSE(buffer.Offer(1, std::move(second)));
  EXPECT_EQ(second, "second");
  EXPECT_EQ(buffer.Pop(), "first");
  std::string late = "late";
  EXPECT_FALSE(buffer.Offer(1, std::move(late)));
  EXPECT_EQ(late, "late");
}

TEST(TotalOrderBufferTest, GapsHoldPayloads) {
  TotalOrderBuffer<int> buffer;
  buffer.Offer(5, 50);
  buffer.Offer(3, 30);
  EXPECT_EQ(buffer.Head(), nullptr);  // 1 missing
  EXPECT_FALSE(buffer.Empty());
  buffer.Offer(1, 10);
  EXPECT_EQ(Drain(buffer), (std::vector<int>{10}));  // 2 missing
  ASSERT_NE(buffer.Find(3), nullptr);
  ASSERT_NE(buffer.Find(5), nullptr);
  buffer.Offer(2, 20);
  EXPECT_EQ(Drain(buffer), (std::vector<int>{20, 30}));  // 5 waits for 4
  EXPECT_EQ(buffer.Find(3), nullptr);
  ASSERT_NE(buffer.Find(5), nullptr);
  EXPECT_FALSE(buffer.Empty());
}

TEST(TotalOrderBufferTest, PayloadPassedThrough) {
  TotalOrderBuffer<std::string> buffer;
  buffer.Offer(1, "payload");
  ASSERT_NE(buffer.Head(), nullptr);
  EXPECT_EQ(*buffer.Head(), "payload");
  EXPECT_EQ(buffer.Pop(), "payload");
}

TEST(TotalOrderBufferTest, CallerMayStopBeforeTheRunEnds) {
  TotalOrderBuffer<int> buffer;
  buffer.Offer(1, 10);
  buffer.Offer(2, 20);
  EXPECT_EQ(buffer.Pop(), 10);
  EXPECT_EQ(buffer.Watermark(), 1);
  ASSERT_NE(buffer.Head(), nullptr);  // 2 stays at the head until popped
  EXPECT_EQ(*buffer.Head(), 20);
  buffer.Offer(3, 30);
  EXPECT_EQ(Drain(buffer), (std::vector<int>{20, 30}));
}

TEST(TotalOrderBufferTest, FindSeesOnlyHeldPositions) {
  TotalOrderBuffer<int> buffer;
  buffer.Offer(1, 10);
  buffer.Offer(3, 30);
  ASSERT_NE(buffer.Find(1), nullptr);
  EXPECT_EQ(*buffer.Find(1), 10);
  EXPECT_EQ(buffer.Find(2), nullptr);  // never offered
  EXPECT_EQ(*buffer.Find(3), 30);
  Drain(buffer);
  EXPECT_EQ(buffer.Find(1), nullptr);  // released
  EXPECT_EQ(*buffer.Find(3), 30);
}

TEST(TotalOrderBufferTest, MaxOfferedCoversHeldReleasedAndRefused) {
  TotalOrderBuffer<int> buffer;
  EXPECT_EQ(buffer.MaxOffered(), 0);
  buffer.Offer(4, 40);  // held above a gap
  EXPECT_EQ(buffer.MaxOffered(), 4);
  buffer.Offer(1, 10);
  Drain(buffer);
  EXPECT_EQ(buffer.MaxOffered(), 4);
  EXPECT_FALSE(buffer.Offer(4, 41));  // a refused offer still counts
  EXPECT_FALSE(buffer.Offer(1, 11));
  EXPECT_EQ(buffer.MaxOffered(), 4);
}

TEST(TotalOrderBufferTest, SkipThroughReleasesWithoutPayloads) {
  TotalOrderBuffer<int> buffer;
  buffer.Offer(2, 20);
  buffer.Offer(5, 50);
  buffer.Offer(7, 70);
  buffer.SkipThrough(5);
  EXPECT_EQ(buffer.Watermark(), 5);
  EXPECT_EQ(buffer.Find(2), nullptr);  // dropped, not released
  EXPECT_EQ(buffer.Find(5), nullptr);
  EXPECT_EQ(buffer.Head(), nullptr);  // 6 missing
  EXPECT_FALSE(buffer.Offer(3, 30));
  buffer.Offer(6, 60);
  EXPECT_EQ(Drain(buffer), (std::vector<int>{60, 70}));

  // A skip raises MaxOffered even above every offered position, and a skip
  // to or below the watermark changes nothing.
  buffer.SkipThrough(20);
  EXPECT_EQ(buffer.Watermark(), 20);
  EXPECT_EQ(buffer.MaxOffered(), 20);
  buffer.SkipThrough(10);
  EXPECT_EQ(buffer.Watermark(), 20);
  EXPECT_TRUE(buffer.Offer(21, 210));
  EXPECT_EQ(Drain(buffer), (std::vector<int>{210}));
}

}  // namespace
}  // namespace esr::msg
