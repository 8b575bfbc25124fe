// Bounded MPMC report queue: FIFO per producer, backpressure on a full
// queue, and clean shutdown that drains everything already enqueued.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/report_queue.h"

namespace wiscape::core {
namespace {

// Tags a record so tests can recover (producer, sequence) after dequeue.
trace::measurement_record tagged(std::uint64_t producer, double seq) {
  trace::measurement_record r;
  r.client_id = producer;
  r.time_s = seq;
  return r;
}

// Pushes one record; true once it is enqueued.
bool push_one(report_queue& q, const trace::measurement_record& rec) {
  return q.push({&rec, 1}) == 1;
}

TEST(ReportQueue, RejectsZeroCapacity) {
  EXPECT_THROW(report_queue(0), std::invalid_argument);
}

TEST(ReportQueue, SingleThreadFifo) {
  report_queue q(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(push_one(q, tagged(1, i)));
  EXPECT_EQ(q.size(), 5u);
  std::vector<trace::measurement_record> out;
  EXPECT_EQ(q.pop_batch(out, 3), 3u);
  EXPECT_EQ(q.pop_batch(out, 100), 2u);
  ASSERT_EQ(out.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(out[i].time_s, i);
  EXPECT_EQ(q.size(), 0u);
}

TEST(ReportQueue, FifoPerProducerUnderConcurrency) {
  constexpr std::uint64_t kProducers = 4;
  constexpr std::size_t kPerProducer = 2000;
  report_queue q(64);

  std::vector<std::thread> producers;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(push_one(q, tagged(p, static_cast<double>(i))));
      }
    });
  }

  std::vector<trace::measurement_record> drained;
  std::thread consumer([&] {
    std::vector<trace::measurement_record> batch;
    while (drained.size() < kProducers * kPerProducer) {
      batch.clear();
      if (q.pop_batch(batch, 128) == 0) break;
      drained.insert(drained.end(), batch.begin(), batch.end());
    }
  });
  for (auto& t : producers) t.join();
  q.close();
  consumer.join();

  ASSERT_EQ(drained.size(), kProducers * kPerProducer);
  // Each producer's records appear in its push order.
  std::vector<double> next(kProducers, 0.0);
  for (const auto& rec : drained) {
    ASSERT_LT(rec.client_id, kProducers);
    EXPECT_EQ(rec.time_s, next[rec.client_id]);
    next[rec.client_id] += 1.0;
  }
}

TEST(ReportQueue, FullQueueBlocksProducerUntilConsumed) {
  report_queue q(2);
  ASSERT_TRUE(push_one(q, tagged(1, 0)));
  ASSERT_TRUE(push_one(q, tagged(1, 1)));

  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    ASSERT_TRUE(push_one(q, tagged(1, 2)));  // blocks until the consumer pops
    third_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_pushed.load()) << "push returned while queue was full";

  std::vector<trace::measurement_record> out;
  EXPECT_EQ(q.pop_batch(out, 1), 1u);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(q.pop_batch(out, 10), 2u);
  ASSERT_EQ(out.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(out[i].time_s, i);  // FIFO held
}

TEST(ReportQueue, CloseDrainsEnqueuedItemsThenReturnsZero) {
  report_queue q(16);
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(push_one(q, tagged(1, i)));
  q.close();
  EXPECT_FALSE(push_one(q, tagged(1, 100)));  // no new items after close

  std::vector<trace::measurement_record> out;
  EXPECT_EQ(q.pop_batch(out, 4), 4u);
  EXPECT_EQ(q.pop_batch(out, 4), 3u);  // the remainder drains
  EXPECT_EQ(q.pop_batch(out, 4), 0u);  // then consumers see shutdown
  ASSERT_EQ(out.size(), 7u);
  for (int i = 0; i < 7; ++i) EXPECT_EQ(out[i].time_s, i);
}

TEST(ReportQueue, CloseUnblocksWaitingProducerAndConsumer) {
  report_queue q(1);
  ASSERT_TRUE(push_one(q, tagged(1, 0)));
  std::thread blocked_producer([&] {
    EXPECT_FALSE(push_one(q, tagged(1, 1)));  // full; close() must release it
  });
  report_queue empty_q(1);
  std::thread blocked_consumer([&] {
    std::vector<trace::measurement_record> out;
    EXPECT_EQ(empty_q.pop_batch(out, 8), 0u);  // empty; close() releases it
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  empty_q.close();
  blocked_producer.join();
  blocked_consumer.join();
}

TEST(ReportQueue, PushBatchEnqueuesAllInOrder) {
  report_queue q(64);
  std::vector<trace::measurement_record> batch;
  for (int i = 0; i < 10; ++i) batch.push_back(tagged(1, i));
  EXPECT_EQ(q.push(batch), 10u);
  EXPECT_EQ(q.size(), 10u);
  std::vector<trace::measurement_record> out;
  EXPECT_EQ(q.pop_batch(out, 100), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[i].time_s, i);
  EXPECT_EQ(q.push({}), 0u);  // empty batch is a no-op
}

TEST(ReportQueue, PushBatchLargerThanCapacityFeedsThroughBackpressure) {
  // A batch bigger than the queue's capacity must flow through in gulps as
  // the consumer makes room, keeping order, losing nothing.
  constexpr std::size_t kBatch = 100;
  report_queue q(8);
  std::vector<trace::measurement_record> batch;
  for (std::size_t i = 0; i < kBatch; ++i) {
    batch.push_back(tagged(1, static_cast<double>(i)));
  }
  std::vector<trace::measurement_record> drained;
  std::thread consumer([&] {
    std::vector<trace::measurement_record> out;
    while (drained.size() < kBatch) {
      out.clear();
      if (q.pop_batch(out, 16) == 0) break;
      drained.insert(drained.end(), out.begin(), out.end());
    }
  });
  EXPECT_EQ(q.push(batch), kBatch);
  q.close();
  consumer.join();
  ASSERT_EQ(drained.size(), kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) EXPECT_EQ(drained[i].time_s, i);
}

TEST(ReportQueue, PushBatchStaysContiguousAcrossProducers) {
  // Two producers batch-push concurrently into a roomy queue: each batch
  // must land contiguous (one lock hold), in order, nothing interleaved.
  constexpr std::size_t kBatch = 50;
  report_queue q(256);
  auto make = [](std::uint64_t p) {
    std::vector<trace::measurement_record> batch;
    for (std::size_t i = 0; i < kBatch; ++i) {
      batch.push_back(tagged(p, static_cast<double>(i)));
    }
    return batch;
  };
  std::thread a([&] { EXPECT_EQ(q.push(make(1)), kBatch); });
  std::thread b([&] { EXPECT_EQ(q.push(make(2)), kBatch); });
  a.join();
  b.join();
  std::vector<trace::measurement_record> out;
  EXPECT_EQ(q.pop_batch(out, 2 * kBatch), 2 * kBatch);
  // Batches didn't interleave: the producer id changes at most once.
  int switches = 0;
  for (std::size_t i = 1; i < out.size(); ++i) {
    if (out[i].client_id != out[i - 1].client_id) ++switches;
  }
  EXPECT_LE(switches, 1);
  // And within each batch the order held.
  std::vector<double> next(3, 0.0);
  for (const auto& rec : out) {
    EXPECT_EQ(rec.time_s, next[rec.client_id]);
    next[rec.client_id] += 1.0;
  }
}

TEST(ReportQueue, PushBatchAfterCloseDropsEverything) {
  report_queue q(8);
  q.close();
  std::vector<trace::measurement_record> batch{tagged(1, 0), tagged(1, 1)};
  EXPECT_EQ(q.push(batch), 0u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(ReportQueue, PushRoutedEnqueuesOnlyItsLaneInOrder) {
  report_queue q(8);
  std::vector<trace::measurement_record> recs;
  const std::vector<std::uint32_t> route{1, 0, 1, 1, 0, 2};
  for (std::size_t i = 0; i < route.size(); ++i) {
    recs.push_back(tagged(route[i], static_cast<double>(i)));
  }
  EXPECT_EQ(q.push(recs, route, 3), 0u);  // no record for lane 3
  EXPECT_EQ(q.push(recs, route, 1), 3u);
  EXPECT_EQ(q.push(recs, route, 0), 2u);
  std::vector<trace::measurement_record> out;
  EXPECT_EQ(q.pop_batch(out, 100), 5u);
  const std::vector<double> want{0, 2, 3, 1, 4};
  ASSERT_EQ(out.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(out[i].time_s, want[i]);
  }
}

// Property test of the ring's index arithmetic: seeded random interleavings
// of every push shape (one record, a whole batch, a routed lane, a route
// selecting nothing) against pop_batch of random sizes, checked step by
// step against a std::deque reference model over many full wraps. Batches
// that do not fit (including ones larger than the capacity) need a
// concurrent consumer; it pops a chosen number of records in random gulps,
// so the expected queue contents stay exact after every step.
TEST(ReportQueue, RingWrapsMatchADequeModel) {
  struct rec_view {
    std::uint64_t client;
    double seq;
    std::string network;
    std::string device;
    bool operator==(const rec_view&) const = default;
  };
  const auto view = [](const trace::measurement_record& r) {
    return rec_view{r.client_id, r.time_s, r.network, r.device};
  };
  for (const std::size_t cap : {1u, 2u, 3u, 7u, 64u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("capacity " + std::to_string(cap) + " seed " +
                   std::to_string(seed));
      std::mt19937_64 rng(seed * 1000 + cap);
      const auto uniform = [&](std::size_t lo, std::size_t hi) {
        return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
      };
      report_queue q(cap);
      std::deque<rec_view> model;
      double next_seq = 0;
      // Short names ride SSO; every fifth is long enough to live on the
      // heap, so slots are reused across both string representations.
      const auto make = [&] {
        trace::measurement_record r = tagged(seed, next_seq);
        const auto n = static_cast<std::uint64_t>(next_seq++);
        r.network = n % 5 == 0 ? "a-long-operator-name-" + std::to_string(n)
                               : "Net" + std::to_string(n % 7);
        r.device = n % 3 == 0 ? "phone" : "laptop";
        return r;
      };
      const auto expect_front = [&](const std::vector<trace::measurement_record>&
                                        got) {
        ASSERT_LE(got.size(), model.size());
        for (const auto& r : got) {
          ASSERT_EQ(view(r), model.front());
          model.pop_front();
        }
      };
      // Runs `push` (which enqueues `n` records already appended to the
      // model) while a consumer pops enough for the rest to fit.
      const auto push_with_consumer = [&](std::size_t n, auto push) {
        const std::size_t total = model.size();
        const std::size_t target = total - uniform(0, cap);  // n > free
        const std::uint64_t consumer_seed = rng();
        std::vector<trace::measurement_record> spilled;
        std::thread consumer([&] {
          std::mt19937_64 crng(consumer_seed);
          while (spilled.size() < target) {
            const std::size_t want =
                std::uniform_int_distribution<std::size_t>(
                    1, target - spilled.size())(crng);
            q.pop_batch(spilled, want);
          }
        });
        EXPECT_EQ(push(), n);
        consumer.join();
        expect_front(spilled);
      };

      std::uint64_t pushed = 0;
      std::size_t steps = 0;
      while (pushed < 12 * cap || steps < 400) {
        ++steps;
        const std::size_t free = cap - model.size();
        switch (uniform(0, 4)) {
          case 0:  // one record, only when it cannot block
            if (free == 0) break;
            {
              const auto r = make();
              model.push_back(view(r));
              ASSERT_TRUE(push_one(q, r));
              ++pushed;
            }
            break;
          case 1: {  // a route selecting nothing: no-op, even when full
            std::vector<trace::measurement_record> batch(uniform(1, cap));
            std::vector<std::uint32_t> route(batch.size());
            for (std::size_t i = 0; i < batch.size(); ++i) {
              batch[i] = make();
              route[i] = i % 2 == 0 ? 0 : 2;
            }
            ASSERT_EQ(q.push(batch, route, 1), 0u);
            break;
          }
          case 2: {  // all of a batch, sometimes larger than the capacity
            std::vector<trace::measurement_record> batch(uniform(1, 2 * cap + 1));
            for (auto& r : batch) {
              r = make();
              model.push_back(view(r));
            }
            pushed += batch.size();
            if (batch.size() <= free) {
              ASSERT_EQ(q.push(batch), batch.size());
            } else {
              push_with_consumer(batch.size(),
                                 [&] { return q.push(batch); });
            }
            break;
          }
          case 3: {  // routed: only lane 1 of a mixed batch lands
            std::vector<trace::measurement_record> batch(uniform(1, 2 * cap + 1));
            std::vector<std::uint32_t> route(batch.size());
            std::size_t mine = 0;
            for (std::size_t i = 0; i < batch.size(); ++i) {
              batch[i] = make();
              route[i] = static_cast<std::uint32_t>(uniform(0, 2));
              if (route[i] == 1) {
                model.push_back(view(batch[i]));
                ++mine;
              }
            }
            pushed += mine;
            if (mine <= free) {
              ASSERT_EQ(q.push(batch, route, 1), mine);
            } else {
              push_with_consumer(
                  mine, [&] { return q.push(batch, route, 1); });
            }
            break;
          }
          case 4: {  // pop a random amount, only when it cannot block
            if (model.empty()) break;
            std::vector<trace::measurement_record> out;
            const std::size_t want = uniform(1, 2 * cap);
            ASSERT_EQ(q.pop_batch(out, want), std::min(want, model.size()));
            expect_front(out);
            break;
          }
        }
        ASSERT_EQ(q.size(), model.size());
      }
      // Drain the remainder: the tail must match too.
      std::vector<trace::measurement_record> out;
      while (!model.empty()) {
        const std::size_t before = model.size();
        out.clear();
        ASSERT_GT(q.pop_batch(out, cap), 0u);
        expect_front(out);
        ASSERT_EQ(model.size(), before - out.size());
      }
      EXPECT_EQ(q.size(), 0u);
      EXPECT_GE(pushed, 10 * cap);
    }
  }
}

}  // namespace
}  // namespace wiscape::core
