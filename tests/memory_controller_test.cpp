#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/event_queue.hh"
#include "common/rng.hh"
#include "mc/memory_controller.hh"
#include "oracles/reference_scheduler.hh"

namespace tempo {
namespace {

struct McFixture : public ::testing::Test {
    EventQueue eq;
    DramConfig dram_cfg;
    std::unique_ptr<DramDevice> dram;
    std::unique_ptr<MemoryController> mc;

    void
    build(McConfig cfg = McConfig{})
    {
        dram_cfg.rowPolicy = RowPolicyKind::Open;
        dram = std::make_unique<DramDevice>(dram_cfg);
        mc = std::make_unique<MemoryController>(eq, *dram, cfg);
    }

    /** Submit and run to completion; returns the MemResult. */
    MemResult
    roundTrip(Addr paddr, ReqKind kind = ReqKind::Regular,
              TempoTag tag = {})
    {
        std::optional<MemResult> result;
        MemRequest req;
        req.paddr = paddr;
        req.kind = kind;
        req.tempo = tag;
        req.onComplete = [&](const MemResult &r) { result = r; };
        mc->submit(std::move(req));
        eq.runAll();
        EXPECT_TRUE(result.has_value());
        return *result;
    }
};

TEST_F(McFixture, SingleRequestCompletesWithMissLatency)
{
    build();
    const MemResult result = roundTrip(0x4000);
    EXPECT_EQ(result.complete, dram_cfg.missLatency());
    EXPECT_EQ(result.queueDelay, 0u);
    EXPECT_EQ(mc->served(ReqKind::Regular), 1u);
}

TEST_F(McFixture, BackToBackSameRowIsRowHit)
{
    build();
    roundTrip(0x4000);
    const MemResult second = roundTrip(0x4040);
    EXPECT_EQ(second.rowEvent, static_cast<std::uint8_t>(RowEvent::Hit));
    EXPECT_EQ(mc->rowHitsFor(ReqKind::Regular), 1u);
}

TEST_F(McFixture, ChannelBusSerializesDispatch)
{
    build();
    std::vector<Cycle> completions;
    // Two requests to the same channel, different banks.
    for (Addr addr : {Addr{0}, Addr{1} << 14}) {
        MemRequest req;
        req.paddr = addr;
        req.onComplete = [&](const MemResult &r) {
            completions.push_back(r.complete);
        };
        mc->submit(std::move(req));
    }
    eq.runAll();
    ASSERT_EQ(completions.size(), 2u);
    // The second dispatch waits one burst slot.
    EXPECT_GE(completions[1], completions[0] + dram_cfg.tBurst
              || completions[0] >= completions[1] + dram_cfg.tBurst);
}

TEST_F(McFixture, TempoDisabledIgnoresTaggedRequests)
{
    McConfig cfg;
    cfg.tempoEnabled = false;
    build(cfg);
    TempoTag tag;
    tag.tagged = true;
    tag.pteValid = true;
    tag.replayPaddr = 0x123400;
    roundTrip(0x8000, ReqKind::PtWalk, tag);
    eq.runAll();
    EXPECT_EQ(mc->tempoPrefetchesIssued(), 0u);
    EXPECT_EQ(mc->served(ReqKind::TempoPrefetch), 0u);
}

TEST_F(McFixture, TaggedPtTriggersPrefetch)
{
    McConfig cfg;
    cfg.tempoEnabled = true;
    build(cfg);
    TempoTag tag;
    tag.tagged = true;
    tag.pteValid = true;
    tag.replayPaddr = 0x123440;
    roundTrip(0x8000, ReqKind::PtWalk, tag);
    eq.runAll();
    EXPECT_EQ(mc->tempoPrefetchesIssued(), 1u);
    EXPECT_EQ(mc->served(ReqKind::TempoPrefetch), 1u);
}

TEST_F(McFixture, PrefetchTargetsExactReplayLine)
{
    McConfig cfg;
    cfg.tempoEnabled = true;
    build(cfg);
    Addr filled = kInvalidAddr;
    mc->onTempoPrefetchFill = [&](Addr paddr, AppId) { filled = paddr; };
    TempoTag tag;
    tag.tagged = true;
    tag.pteValid = true;
    tag.replayPaddr = 0x123456; // unaligned on purpose
    roundTrip(0x8000, ReqKind::PtWalk, tag);
    eq.runAll();
    // Non-speculative accuracy: the prefetch is the replay's line.
    EXPECT_EQ(filled, lineAddr(Addr{0x123456}));
}

TEST_F(McFixture, PageFaultSuppressesPrefetch)
{
    McConfig cfg;
    cfg.tempoEnabled = true;
    build(cfg);
    TempoTag tag;
    tag.tagged = true;
    tag.pteValid = false; // unallocated translation (paper Sec. 4.5)
    roundTrip(0x8000, ReqKind::PtWalk, tag);
    eq.runAll();
    EXPECT_EQ(mc->tempoPrefetchesIssued(), 0u);
    EXPECT_EQ(mc->tempoFaultSuppressed(), 1u);
}

TEST_F(McFixture, LlcFillCanBeDisabled)
{
    McConfig cfg;
    cfg.tempoEnabled = true;
    cfg.tempoLlcFill = false; // row-buffer-only ablation
    build(cfg);
    int fills = 0;
    mc->onTempoPrefetchFill = [&](Addr, AppId) { ++fills; };
    TempoTag tag;
    tag.tagged = true;
    tag.pteValid = true;
    tag.replayPaddr = 0x40000;
    roundTrip(0x8000, ReqKind::PtWalk, tag);
    eq.runAll();
    EXPECT_EQ(mc->tempoPrefetchesIssued(), 1u);
    EXPECT_EQ(fills, 0);
}

TEST_F(McFixture, PrefetchOpensTargetRow)
{
    McConfig cfg;
    cfg.tempoEnabled = true;
    build(cfg);
    TempoTag tag;
    tag.tagged = true;
    tag.pteValid = true;
    tag.replayPaddr = 0x200000;
    roundTrip(0x8000, ReqKind::PtWalk, tag);
    eq.runAll();
    // After the prefetch, the replay's row is open in its bank.
    EXPECT_TRUE(dram->wouldRowHit(0x200000));
}

TEST_F(McFixture, DeepQueueDropsPrefetches)
{
    McConfig cfg;
    cfg.tempoEnabled = true;
    cfg.prefetchDropDepth = 0; // everything drops
    build(cfg);
    TempoTag tag;
    tag.tagged = true;
    tag.pteValid = true;
    tag.replayPaddr = 0x40000;
    roundTrip(0x8000, ReqKind::PtWalk, tag);
    eq.runAll();
    EXPECT_EQ(mc->tempoPrefetchesIssued(), 0u);
    EXPECT_EQ(mc->tempoPrefetchesDropped(), 1u);
}

TEST_F(McFixture, MergeFindsPendingPrefetch)
{
    McConfig cfg;
    cfg.tempoEnabled = true;
    build(cfg);
    TempoTag tag;
    tag.tagged = true;
    tag.pteValid = true;
    tag.replayPaddr = 0x40000;

    MemRequest req;
    req.paddr = 0x8000;
    req.kind = ReqKind::PtWalk;
    req.tempo = tag;
    std::optional<Cycle> merged_done;
    req.onComplete = [&](const MemResult &) {
        // At PT completion the prefetch is registered; merge now.
        EXPECT_TRUE(mc->mergeWithPendingPrefetch(
            0x40000, [&](Cycle done) { merged_done = done; }));
    };
    mc->submit(std::move(req));
    eq.runAll();
    ASSERT_TRUE(merged_done.has_value());
    EXPECT_GT(*merged_done, 0u);
    // After completion nothing is pending anymore.
    EXPECT_FALSE(mc->mergeWithPendingPrefetch(0x40000, [](Cycle) {}));
}

TEST_F(McFixture, MergeMissesWithoutPrefetch)
{
    build();
    EXPECT_FALSE(mc->mergeWithPendingPrefetch(0x999999, [](Cycle) {}));
}

TEST_F(McFixture, TaggedRequestCountsTwoQueueSlots)
{
    McConfig cfg;
    cfg.tempoEnabled = true;
    build(cfg);
    TempoTag tag;
    tag.tagged = true;
    tag.pteValid = true;
    tag.replayPaddr = 0x40000;
    MemRequest req;
    req.paddr = 0x8000;
    req.kind = ReqKind::PtWalk;
    req.tempo = tag;
    mc->submit(std::move(req));
    // The split Tx Q encoding (paper Sec. 4.1) occupies two slots.
    EXPECT_GE(mc->queueHighWater(), 2u);
    eq.runAll();
}

TEST_F(McFixture, ReportHasPerKindStats)
{
    build();
    roundTrip(0x4000);
    stats::Report report;
    mc->report(report);
    EXPECT_TRUE(report.has("regular.served"));
    EXPECT_TRUE(report.has("pt_walk.served"));
    EXPECT_TRUE(report.has("tempo.prefetches_issued"));
    EXPECT_EQ(report.get("regular.served"), 1.0);
}

TEST_F(McFixture, QueueOccupancyCountsTaggedSplitsIncrementally)
{
    McConfig cfg;
    cfg.tempoEnabled = true;
    build(cfg);
    EXPECT_EQ(mc->queueOccupancy(), 0u);
    TempoTag tag;
    tag.tagged = true;
    tag.pteValid = true;
    tag.replayPaddr = 0x40000;
    MemRequest pt;
    pt.paddr = 0x8000;
    pt.kind = ReqKind::PtWalk;
    pt.tempo = tag;
    mc->submit(std::move(pt));
    MemRequest regular;
    regular.paddr = 0x20000;
    mc->submit(std::move(regular));
    // Nothing dispatches until the event queue runs: the tagged PT holds
    // two slots (split encoding) and the demand request one.
    EXPECT_EQ(mc->queueOccupancy(), 3u);
    eq.runAll();
    EXPECT_EQ(mc->queueOccupancy(), 0u);
}

TEST_F(McFixture, ReferenceSchedulerMatchesIndexedTimings)
{
    // The flat-scan oracle schedulers must serve the exact same
    // transactions at the exact same cycles as the indexed ones over a
    // long seeded stream: every request kind (TEMPO prefetches come
    // from tagged walks), four applications in long same-app runs so
    // BLISS blacklists, tagged walks with and without a valid PTE, a
    // starvation limit and prefetch drop depth the bursts reach, and a
    // BLISS clear interval short enough to fire many times.
    struct Spec {
        Cycle at;
        Addr paddr;
        ReqKind kind;
        AppId app;
        bool tagged;
        bool pteValid;
        Addr replay;
    };
    constexpr int kRequests = 6000;
    std::vector<Spec> specs;
    Rng rng(0x5c4edull);
    Cycle at = 0;
    AppId app = 0;
    for (int i = 0; i < kRequests; ++i) {
        // Mostly back-to-back bursts; now and then a lull that lets
        // the queues drain.
        at += rng.chance(0.03) ? 200 + rng.below(400) : rng.below(3);
        if (rng.chance(0.08))
            app = static_cast<AppId>(rng.below(4));
        Spec s{at, 0, ReqKind::Regular, app, false, false, kInvalidAddr};
        // A 64-row pool: frequent row hits and conflicts.
        s.paddr = (rng.below(64) << 16) | (rng.below(1024) << 6);
        const std::uint64_t roll = rng.below(100);
        if (roll < 25) {
            s.kind = ReqKind::PtWalk;
            s.tagged = rng.chance(0.6);
            s.pteValid = rng.chance(0.9);
            s.replay = (rng.below(64) << 16) | (rng.below(1024) << 6);
        } else if (roll < 40) {
            s.kind = ReqKind::Replay;
        } else if (roll < 50) {
            s.kind = ReqKind::ImpPrefetch;
        } else if (roll < 62) {
            s.kind = ReqKind::Writeback;
        }
        specs.push_back(s);
    }

    struct Outcome {
        /** (request, complete, queue delay, row event), in completion
         * order. */
        std::vector<std::uint64_t> completions;
        stats::Report report;
        std::uint64_t blacklists = 0;
    };
    auto run = [&specs](SchedKind kind, SchedulerFactory factory) {
        EventQueue local_eq;
        DramConfig local_dram_cfg;
        local_dram_cfg.rowPolicy = RowPolicyKind::Open;
        DramDevice local_dram(local_dram_cfg);
        McConfig cfg;
        cfg.tempoEnabled = true;
        cfg.sched = kind;
        cfg.prefetchDropDepth = 12;
        cfg.scheduler.starvationLimit = 600;
        cfg.scheduler.blissThreshold = 4;
        cfg.scheduler.blissClearInterval = 500;
        MemoryController local_mc(local_eq, local_dram, cfg, factory);
        Outcome out;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            local_eq.schedule(specs[i].at, [&, i] {
                const Spec &s = specs[i];
                MemRequest req;
                req.paddr = s.paddr;
                req.kind = s.kind;
                req.isWrite = s.kind == ReqKind::Writeback;
                req.app = s.app;
                req.tempo.tagged = s.tagged;
                req.tempo.pteValid = s.pteValid;
                req.tempo.replayPaddr = s.replay;
                req.onComplete = [&out, i](const MemResult &r) {
                    out.completions.insert(
                        out.completions.end(),
                        {i, r.complete, r.queueDelay, r.rowEvent});
                };
                local_mc.submit(std::move(req));
            });
        }
        local_eq.runAll();
        local_mc.report(out.report);
        if (auto *bliss =
                dynamic_cast<BlissScheduler *>(&local_mc.scheduler()))
            out.blacklists = bliss->blacklistEvents();
        return out;
    };

    for (const SchedKind kind : {SchedKind::FrFcfs, SchedKind::Bliss}) {
        SCOPED_TRACE(kind == SchedKind::Bliss ? "bliss" : "fr-fcfs");
        const Outcome indexed = run(kind, makeScheduler);
        const Outcome ref = run(kind, makeReferenceScheduler);
        ASSERT_EQ(indexed.completions.size(), 4u * kRequests);
        EXPECT_EQ(indexed.completions, ref.completions);
        EXPECT_EQ(indexed.report.entries(), ref.report.entries());
        EXPECT_EQ(indexed.blacklists, ref.blacklists);

        // The stream reached what it claims to cover.
        for (const ReqKind k :
             {ReqKind::Regular, ReqKind::Replay, ReqKind::PtWalk,
              ReqKind::TempoPrefetch, ReqKind::ImpPrefetch,
              ReqKind::Writeback}) {
            const std::string served =
                std::string(reqKindName(k)) + ".served";
            EXPECT_GT(indexed.report.get(served), 0.0) << served;
        }
        EXPECT_GT(indexed.report.get("tempo.prefetches_dropped"), 0.0);
        EXPECT_GT(indexed.report.get("tempo.fault_suppressed"), 0.0);
        if (kind == SchedKind::Bliss) {
            EXPECT_GT(indexed.blacklists, 0u);
        }
    }
}

TEST_F(McFixture, QueueDelayAccumulatesUnderLoad)
{
    build();
    int completions = 0;
    for (int i = 0; i < 32; ++i) {
        MemRequest req;
        req.paddr = static_cast<Addr>(i) << 14;
        req.onComplete = [&](const MemResult &) { ++completions; };
        mc->submit(std::move(req));
    }
    eq.runAll();
    EXPECT_EQ(completions, 32);
    EXPECT_GT(mc->avgQueueDelay(ReqKind::Regular), 0.0);
    EXPECT_GE(mc->queueHighWater(), 16u);
}

} // namespace
} // namespace tempo
