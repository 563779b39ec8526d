#include <gtest/gtest.h>

#include "common/rng.hh"
#include "mc/bliss.hh"
#include "mc/tx_queue.hh"
#include "oracles/reference_scheduler.hh"

namespace tempo {
namespace {

QueuedRequest
makeEntry(Addr paddr, ReqKind kind, AppId app, Cycle arrival,
          std::uint64_t seq, bool tagged = false)
{
    QueuedRequest entry;
    entry.req.paddr = paddr;
    entry.req.kind = kind;
    entry.req.app = app;
    entry.req.isWrite = kind == ReqKind::Writeback;
    entry.req.tempo.tagged = tagged;
    entry.arrival = arrival;
    entry.seq = seq;
    return entry;
}

/** Random request stream shared by the differential drivers. */
struct StreamGen {
    Rng rng;
    std::uint64_t seq = 0;
    Cycle now = 0;

    explicit StreamGen(std::uint64_t seed) : rng(seed) {}

    QueuedRequest
    next()
    {
        // Rows 0-15 over all banks/channels of the default geometry:
        // dense enough for frequent row hits and conflicts.
        const Addr paddr = rng.next() & ((1u << 20) - 1) & ~0x3full;
        const std::uint64_t roll = rng.below(100);
        ReqKind kind = ReqKind::Regular;
        bool tagged = false;
        if (roll < 20) {
            kind = ReqKind::PtWalk;
            tagged = rng.chance(0.5);
        } else if (roll < 35) {
            kind = ReqKind::TempoPrefetch;
        } else if (roll < 45) {
            kind = ReqKind::Writeback;
        }
        return makeEntry(paddr, kind, static_cast<AppId>(rng.below(4)),
                         now, seq++, tagged);
    }
};

/**
 * Drive an indexed and a reference scheduler over one shared queue and
 * device: every pick must agree, and the occupancy counter must match a
 * full recount, at every step.
 */
void
runDifferential(const DramConfig &dram_cfg, const SchedulerConfig &cfg,
                bool bliss, std::uint64_t seed, int steps)
{
    DramDevice dram(dram_cfg);
    TxQueue txq(dram);
    std::unique_ptr<Scheduler> indexed;
    std::unique_ptr<Scheduler> ref;
    BlissScheduler *indexed_bliss = nullptr;
    BlissScheduler *ref_bliss = nullptr;
    if (bliss) {
        auto a = std::make_unique<BlissScheduler>(cfg);
        auto b = std::make_unique<RefBlissScheduler>(cfg);
        indexed_bliss = a.get();
        ref_bliss = b.get();
        indexed = std::move(a);
        ref = std::move(b);
    } else {
        indexed = std::make_unique<FrFcfsScheduler>(cfg);
        ref = std::make_unique<RefFrFcfsScheduler>(cfg);
    }

    StreamGen gen(seed);
    for (int i = 0; i < steps; ++i) {
        gen.now += gen.rng.below(30);
        if (txq.totalSize() == 0 || gen.rng.chance(0.55)) {
            txq.enqueue(gen.next());
        } else {
            unsigned ch =
                static_cast<unsigned>(gen.rng.below(txq.channels()));
            while (txq.empty(ch))
                ch = (ch + 1) % txq.channels();
            const std::uint32_t a =
                indexed->pick(txq, ch, dram, gen.now);
            const std::uint32_t b = ref->pick(txq, ch, dram, gen.now);
            ASSERT_EQ(a, b) << "divergent pick at step " << i;
            txq.remove(a);
            const QueuedRequest &entry = txq.entry(a);
            dram.access(entry.req.paddr, entry.req.isWrite,
                        entry.req.kind == ReqKind::TempoPrefetch,
                        entry.req.app, gen.now,
                        gen.rng.chance(0.2) ? 10 : 0);
            if (bliss) {
                indexed_bliss->served(entry, gen.now);
                ref_bliss->served(entry, gen.now);
                ASSERT_EQ(indexed_bliss->blacklistEvents(),
                          ref_bliss->blacklistEvents());
            }
            txq.release(a);
        }
        ASSERT_EQ(txq.totalOccupancy(), txq.bruteForceOccupancy())
            << "occupancy drift at step " << i;
    }
}

TEST(TxQueueTest, OccupancyCounterMatchesBruteForce)
{
    DramConfig dram_cfg;
    DramDevice dram(dram_cfg);
    TxQueue txq(dram);
    Rng rng(7);
    std::uint64_t seq = 0;
    std::vector<std::uint32_t> queued;
    for (int i = 0; i < 2000; ++i) {
        if (queued.empty() || rng.chance(0.6)) {
            const Addr paddr = rng.next() & ((1u << 20) - 1) & ~0x3full;
            const bool tagged = rng.chance(0.3);
            queued.push_back(txq.enqueue(makeEntry(
                paddr, tagged ? ReqKind::PtWalk : ReqKind::Regular, 0,
                0, seq++, tagged)));
        } else {
            const std::size_t victim = rng.below(queued.size());
            const std::uint32_t id = queued[victim];
            queued[victim] = queued.back();
            queued.pop_back();
            txq.remove(id);
            txq.release(id);
        }
        ASSERT_EQ(txq.totalOccupancy(), txq.bruteForceOccupancy());
        std::size_t per_channel = 0;
        for (unsigned ch = 0; ch < txq.channels(); ++ch)
            per_channel += txq.occupancy(ch);
        ASSERT_EQ(per_channel, txq.totalOccupancy());
    }
    EXPECT_GT(txq.totalOccupancy(), 0u);
}

TEST(TxQueueTest, SlotsAreReusedAfterRelease)
{
    DramConfig dram_cfg;
    DramDevice dram(dram_cfg);
    TxQueue txq(dram);
    const std::uint32_t a =
        txq.enqueue(makeEntry(0x40, ReqKind::Regular, 1, 0, 0));
    txq.remove(a);
    const QueuedRequest taken = txq.take(a);
    EXPECT_EQ(taken.req.paddr, 0x40u);
    EXPECT_EQ(taken.req.app, 1u);
    // The freed slot is recycled before the arena grows.
    const std::uint32_t b =
        txq.enqueue(makeEntry(0x80, ReqKind::Regular, 2, 0, 1));
    EXPECT_EQ(b, a);
    EXPECT_EQ(txq.entry(b).req.app, 2u);
}

TEST(TxQueueTest, SnapshotsRowsOpenedBeforeConstruction)
{
    DramConfig dram_cfg;
    dram_cfg.channels = 1;
    dram_cfg.rowPolicy = RowPolicyKind::Open;
    DramDevice dram(dram_cfg);
    // Row opened before any TxQueue exists...
    dram.access(0x10000, false, false, 0, 0, 0);
    TxQueue txq(dram);
    txq.enqueue(makeEntry(0x900000, ReqKind::Regular, 0, 0, 0));
    const std::uint32_t hit =
        txq.enqueue(makeEntry(0x10040, ReqKind::Regular, 0, 0, 1));
    // ...must still be visible to the candidate index as a row hit.
    SchedulerConfig cfg;
    FrFcfsScheduler sched(cfg);
    EXPECT_EQ(sched.pick(txq, 0, dram, 1000), hit);
}

TEST(TxQueueTest, DifferentialFrFcfsDefaultConfig)
{
    DramConfig dram_cfg;
    dram_cfg.rowPolicy = RowPolicyKind::Open;
    SchedulerConfig cfg;
    cfg.tempoGrouping = true;
    runDifferential(dram_cfg, cfg, /*bliss=*/false, 0x1234, 6000);
}

TEST(TxQueueTest, DifferentialFrFcfsTightStarvation)
{
    DramConfig dram_cfg;
    dram_cfg.rowPolicy = RowPolicyKind::Open;
    SchedulerConfig cfg;
    cfg.tempoGrouping = true;
    cfg.starvationLimit = 150; // exercise the class-15 override often
    runDifferential(dram_cfg, cfg, /*bliss=*/false, 0x5678, 6000);
}

TEST(TxQueueTest, DifferentialFrFcfsAdaptivePolicyNoGrouping)
{
    DramConfig dram_cfg;
    dram_cfg.rowPolicy = RowPolicyKind::Adaptive;
    SchedulerConfig cfg;
    cfg.tempoGrouping = false;
    runDifferential(dram_cfg, cfg, /*bliss=*/false, 0x9abc, 6000);
}

TEST(TxQueueTest, DifferentialFrFcfsSubRowBuffers)
{
    DramConfig dram_cfg;
    dram_cfg.rowPolicy = RowPolicyKind::Open;
    dram_cfg.subRowAlloc = SubRowAlloc::FOA;
    dram_cfg.subRowCount = 4;
    dram_cfg.subRowsForPrefetch = 1;
    SchedulerConfig cfg;
    cfg.tempoGrouping = true;
    runDifferential(dram_cfg, cfg, /*bliss=*/false, 0xdef0, 6000);
}

TEST(TxQueueTest, DifferentialFrFcfsSingleChannelClosedPolicy)
{
    DramConfig dram_cfg;
    dram_cfg.channels = 1;
    dram_cfg.rowPolicy = RowPolicyKind::Closed;
    SchedulerConfig cfg;
    cfg.tempoGrouping = true;
    runDifferential(dram_cfg, cfg, /*bliss=*/false, 0x1357, 6000);
}

TEST(TxQueueTest, DifferentialBliss)
{
    DramConfig dram_cfg;
    dram_cfg.rowPolicy = RowPolicyKind::Open;
    SchedulerConfig cfg;
    cfg.tempoGrouping = true;
    cfg.blissThreshold = 6;
    cfg.blissClearInterval = 2000;
    cfg.blissTempoAffinity = true;
    runDifferential(dram_cfg, cfg, /*bliss=*/true, 0x2468, 6000);
}

TEST(TxQueueTest, DifferentialBlissTightThreshold)
{
    DramConfig dram_cfg;
    dram_cfg.rowPolicy = RowPolicyKind::Open;
    dram_cfg.channels = 1;
    SchedulerConfig cfg;
    cfg.tempoGrouping = true;
    cfg.blissThreshold = 3;
    cfg.blissClearInterval = 500;
    cfg.blissTempoAffinity = true;
    cfg.starvationLimit = 200;
    runDifferential(dram_cfg, cfg, /*bliss=*/true, 0xaaaa, 6000);
}

} // namespace
} // namespace tempo
