#include <gtest/gtest.h>

#include <deque>
#include <set>

#include "workloads/workload.hh"

namespace tempo {
namespace {

std::vector<std::string>
allWorkloadNames()
{
    std::vector<std::string> names = bigDataWorkloadNames();
    for (const std::string &name : smallWorkloadNames())
        names.push_back(name);
    return names;
}

class EveryWorkload : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EveryWorkload, Constructs)
{
    auto workload = makeWorkload(GetParam(), 1);
    ASSERT_NE(workload, nullptr);
    EXPECT_EQ(workload->name(), GetParam());
    EXPECT_GT(workload->footprintBytes(), 0u);
    EXPECT_GE(workload->mlpHint(), 1u);
}

TEST_P(EveryWorkload, DeterministicForSeed)
{
    auto a = makeWorkload(GetParam(), 77);
    auto b = makeWorkload(GetParam(), 77);
    for (int i = 0; i < 5000; ++i) {
        const MemRef ra = a->next();
        const MemRef rb = b->next();
        ASSERT_EQ(ra.vaddr, rb.vaddr) << i;
        ASSERT_EQ(ra.isWrite, rb.isWrite) << i;
        ASSERT_EQ(ra.indirectFuture, rb.indirectFuture) << i;
    }
}

TEST_P(EveryWorkload, SeedsChangeTheTrace)
{
    auto a = makeWorkload(GetParam(), 1);
    auto b = makeWorkload(GetParam(), 2);
    int same = 0;
    for (int i = 0; i < 1000; ++i) {
        if (a->next().vaddr == b->next().vaddr)
            ++same;
    }
    EXPECT_LT(same, 1000);
}

TEST_P(EveryWorkload, TouchesManyDistinctPages)
{
    auto workload = makeWorkload(GetParam(), 3);
    std::set<Addr> pages;
    for (int i = 0; i < 20000; ++i)
        pages.insert(vpn4K(workload->next().vaddr));
    // Every workload, even the small ones, exercises a real footprint.
    EXPECT_GT(pages.size(), 50u);
}

TEST_P(EveryWorkload, IndirectFutureActuallyArrives)
{
    // Property: when a ref announces indirectFuture, the same stream
    // must reference exactly that address kImpDistance indirect-refs
    // later — otherwise the IMP model would be prefetching garbage.
    auto workload = makeWorkload(GetParam(), 5);
    std::deque<Addr> promised;
    int checked = 0;
    for (int i = 0; i < 50000 && checked < 500; ++i) {
        const MemRef ref = workload->next();
        if (!ref.indirect)
            continue;
        if (promised.size() >= kImpDistance) {
            EXPECT_EQ(ref.vaddr, promised.front());
            promised.pop_front();
            ++checked;
        }
        if (ref.indirectFuture != kInvalidAddr)
            promised.push_back(ref.indirectFuture);
        else
            promised.clear(); // stream broke; restart matching
    }
    // Workloads without indirect streams simply check nothing.
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, EveryWorkload,
                         ::testing::ValuesIn(allWorkloadNames()));

TEST(Workloads, BigDataListMatchesPaper)
{
    const auto &names = bigDataWorkloadNames();
    ASSERT_EQ(names.size(), 8u);
    EXPECT_EQ(names[0], "mcf");
    EXPECT_EQ(names[6], "xsbench");
}

TEST(WorkloadsDeathTest, UnknownNameIsFatal)
{
    EXPECT_DEATH((void)makeWorkload("not_a_workload", 1),
                 "unknown workload");
}

TEST(Workloads, BigDataFootprintsDwarfSmallOnes)
{
    for (const std::string &big : bigDataWorkloadNames()) {
        for (const std::string &small : smallWorkloadNames()) {
            EXPECT_GT(makeWorkload(big, 1)->footprintBytes(),
                      makeWorkload(small, 1)->footprintBytes() * 10)
                << big << " vs " << small;
        }
    }
}

TEST(Workloads, DistinctRegionsPerWorkload)
{
    // Each workload lives in its own VA region; in multiprogrammed
    // mixes each app has its own address space anyway, but distinct
    // bases keep single-system composition sane.
    std::set<Addr> bases;
    for (const std::string &name : allWorkloadNames()) {
        auto workload = makeWorkload(name, 1);
        bases.insert(alignDown(workload->next().vaddr, 1ull << 38));
    }
    EXPECT_GE(bases.size(), allWorkloadNames().size() - 2);
}

TEST(IndirectStream, DeliversDistancePairs)
{
    int counter = 0;
    IndirectStream stream([&] { return Addr(counter++) * 64; });
    // Three laps of the ring: target i comes with target i + distance.
    for (Addr i = 0; i < 3 * kImpDistance; ++i) {
        const auto [current, ahead] = stream.next();
        EXPECT_EQ(current, i * 64);
        EXPECT_EQ(ahead, (i + kImpDistance) * 64);
    }
    EXPECT_EQ(counter, 4 * int(kImpDistance));
}

} // namespace
} // namespace tempo
