#include "sched/bounded_queue.hpp"

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

namespace mfgpu {
namespace {

TEST(BoundedQueue, FifoOrderAndSize) {
  BoundedQueue<int> q(4);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.push(3));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueue, PushBlocksUntilSpaceFreesUp) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(2));
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.pop(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.pop(), 2);
}

TEST(BoundedQueue, CloseFailsProducersButDrainsConsumers) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.push(7));
  ASSERT_TRUE(q.push(8));
  q.close();
  EXPECT_TRUE(q.closed());
  int nine = 9;
  EXPECT_FALSE(q.push(nine));
  EXPECT_EQ(nine, 9);  // a failed push leaves the item intact
  EXPECT_EQ(q.pop(), 7);
  EXPECT_EQ(q.pop(), 8);
  EXPECT_EQ(q.pop(), std::nullopt);
  EXPECT_EQ(q.pop(), std::nullopt);  // stays terminal
}

TEST(BoundedQueue, CloseWakesBlockedConsumer) {
  BoundedQueue<int> q(2);
  std::thread consumer([&] { EXPECT_EQ(q.pop(), std::nullopt); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  consumer.join();
}

TEST(BoundedQueue, ExtractIfPullsMatchesPreservingOrder) {
  BoundedQueue<int> q(8);
  for (int i = 1; i <= 6; ++i) ASSERT_TRUE(q.push(i));
  const auto evens = q.extract_if([](int v) { return v % 2 == 0; }, 2);
  ASSERT_EQ(evens.size(), 2u);
  EXPECT_EQ(evens[0], 2);
  EXPECT_EQ(evens[1], 4);
  // Remaining items keep their relative order (6 stayed: max_items hit).
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 3);
  EXPECT_EQ(q.pop(), 5);
  EXPECT_EQ(q.pop(), 6);
}

TEST(BoundedQueue, DrainNowFlushesEverything) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  const auto drained = q.drain_now();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0], 1);
  EXPECT_EQ(drained[1], 2);
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueue, PausedConsumersHoldUntilReleased) {
  BoundedQueue<int> q(4);
  q.set_paused(true);
  ASSERT_TRUE(q.push(42));
  std::atomic<bool> popped{false};
  std::thread consumer([&] {
    EXPECT_EQ(q.pop(), 42);
    popped.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(popped.load());
  q.set_paused(false);
  consumer.join();
  EXPECT_TRUE(popped.load());
}

TEST(BoundedQueue, CloseClearsPause) {
  BoundedQueue<int> q(2);
  q.set_paused(true);
  ASSERT_TRUE(q.push(5));
  q.close();
  EXPECT_EQ(q.pop(), 5);  // would deadlock if close left the pause in place
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(BoundedQueue, ManyProducersManyConsumers) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 250;
  BoundedQueue<int> q(8);
  std::atomic<int> consumed{0};
  std::atomic<long long> sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push(p * kPerProducer + i));
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (auto item = q.pop()) {
        sum.fetch_add(*item);
        consumed.fetch_add(1);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[static_cast<std::size_t>(p)].join();
  q.close();
  for (std::size_t t = kProducers; t < threads.size(); ++t) threads[t].join();
  const long long total = kProducers * kPerProducer;
  EXPECT_EQ(consumed.load(), total);
  EXPECT_EQ(sum.load(), total * (total - 1) / 2);
}

}  // namespace
}  // namespace mfgpu
