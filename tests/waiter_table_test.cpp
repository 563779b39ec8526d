/**
 * @file
 * The per-reference path's building blocks: RecordPool (index-named
 * records), WaiterTable (line -> FIFO of waiters, the MSHRs and the
 * pending-prefetch set) and InlineFunction's memcpy relocation of
 * trivially copyable callables.
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <vector>

#include "common/inline_function.hh"
#include "common/record_pool.hh"
#include "common/rng.hh"
#include "common/waiter_table.hh"

namespace tempo {
namespace {

TEST(RecordPool, IndicesSurviveGrowthAndReuseLifo)
{
    // Growth (1, 2, 4, 8 records) keeps every value at its index.
    RecordPool<int> pool;
    std::vector<std::uint32_t> ids;
    for (int i = 0; i < 5; ++i) {
        ids.push_back(pool.acquire());
        pool[ids.back()] = 100 + i;
    }
    EXPECT_EQ(ids, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(pool[ids[i]], 100 + i);

    pool.release(ids[3]);
    pool.release(ids[1]);
    EXPECT_EQ(pool.acquire(), ids[1]); // last released, first reused
    EXPECT_EQ(pool[ids[1]], 0);        // reset to T{}
    EXPECT_EQ(pool.acquire(), ids[3]);
    EXPECT_EQ(pool.acquire(), 5u);     // then the free tail of the 8
}

using TestWaiter = InlineFunction<void(Cycle), kHotCaptureBytes>;

TEST(WaiterTable, ClosedLineTakesNoWaiter)
{
    WaiterTable<TestWaiter> table;
    bool ran = false;
    EXPECT_FALSE(table.wait(0x40, [&](Cycle) { ran = true; }));
    table.close(0x40, Cycle{1});
    EXPECT_FALSE(ran);
    EXPECT_EQ(table.size(), 0u);
}

TEST(WaiterTable, WaitersRunFirstInFirstOutWithTheCloseArgument)
{
    WaiterTable<TestWaiter> table;
    std::vector<std::pair<int, Cycle>> order;
    table.open(0x1000);
    table.open(0x1000); // already open: no-op
    EXPECT_EQ(table.size(), 1u);
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(table.wait(0x1000, [&order, i](Cycle when) {
            order.emplace_back(i, when);
        }));
    }
    table.close(0x1000, Cycle{77});
    EXPECT_EQ(order, (std::vector<std::pair<int, Cycle>>{
                         {0, 77}, {1, 77}, {2, 77}, {3, 77}}));
    EXPECT_EQ(table.size(), 0u);
    EXPECT_FALSE(table.wait(0x1000, [&](Cycle) { order.clear(); }));
}

TEST(WaiterTable, CloseErasesTheLineBeforeRunningWaiters)
{
    // The first waiter re-opens the line and queues a new waiter; the
    // second waiter of the old FIFO still runs, and the new waiter
    // belongs to the new fill only.
    WaiterTable<TestWaiter> table;
    std::vector<int> ran;
    table.open(0x80);
    table.wait(0x80, [&](Cycle) {
        ran.push_back(1);
        EXPECT_EQ(table.size(), 0u);
        EXPECT_FALSE(table.wait(0x80, [&](Cycle) { ran.push_back(9); }));
        table.open(0x80);
        table.wait(0x80, [&](Cycle) { ran.push_back(3); });
    });
    table.wait(0x80, [&](Cycle) {
        ran.push_back(2);
        EXPECT_EQ(table.size(), 1u); // re-opened by waiter 1
    });
    table.close(0x80, Cycle{5});
    EXPECT_EQ(ran, (std::vector<int>{1, 2}));
    table.close(0x80, Cycle{6});
    EXPECT_EQ(ran, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(table.size(), 0u);
}

// Random open/wait/close traffic against a std::map of FIFOs: the table
// must agree on membership (wait's result) and on the exact release
// order, through growth and backward-shift deletion.
TEST(WaiterTable, MatchesAMapOfFifosUnderRandomTraffic)
{
    WaiterTable<TestWaiter> table;
    std::map<Addr, std::deque<int>> oracle;
    std::vector<int> released;
    Rng rng(7);
    int next_id = 0;
    for (int op = 0; op < 20000; ++op) {
        // Few distinct lines, many collisions in a small table.
        const Addr page = rng.below(96);
        const Addr line = (page * 0x1000 + rng.below(4)) << 6;
        switch (rng.below(3)) {
          case 0:
            table.open(line);
            oracle[line];
            break;
          case 1: {
            const int id = next_id++;
            const bool queued = table.wait(
                line, [&released, id](Cycle) { released.push_back(id); });
            const auto it = oracle.find(line);
            ASSERT_EQ(queued, it != oracle.end());
            if (queued)
                it->second.push_back(id);
            break;
          }
          default: {
            released.clear();
            table.close(line, Cycle{0});
            std::vector<int> expected;
            const auto it = oracle.find(line);
            if (it != oracle.end()) {
                expected.assign(it->second.begin(), it->second.end());
                oracle.erase(it);
            }
            ASSERT_EQ(released, expected);
            break;
          }
        }
        ASSERT_EQ(table.size(), oracle.size());
    }
    // Every line still open releases exactly its FIFO.
    for (const auto &[line, fifo] : oracle) {
        released.clear();
        table.close(line, Cycle{0});
        EXPECT_EQ(released, std::vector<int>(fifo.begin(), fifo.end()));
    }
    EXPECT_EQ(table.size(), 0u);
}

TEST(InlineFunction, TriviallyCopyableCapturesMoveByValue)
{
    struct Counter {
        int *hits;
        Cycle add;
        void
        operator()(Cycle c) const
        {
            *hits += static_cast<int>(c + add);
        }
    };
    int hits = 0;
    TestWaiter a{hotCapture(Counter{&hits, 1})};
    TestWaiter b = std::move(a);
    EXPECT_FALSE(a);
    ASSERT_TRUE(b);
    EXPECT_TRUE(b.inlineStored());
    b(Cycle{2});
    EXPECT_EQ(hits, 3);
    TestWaiter c;
    c = std::move(b);
    c(Cycle{0});
    EXPECT_EQ(hits, 4);
}

} // namespace
} // namespace tempo
