#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "core/system.hh"
#include "trace/trace.hh"
#include "workloads/workload.hh"

namespace tempo {
namespace {

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

TEST(Trace, RecordCapturesExactStream)
{
    auto a = makeWorkload("xsbench", 5);
    auto b = makeWorkload("xsbench", 5);
    const Trace trace = recordTrace(*a, 1000);
    ASSERT_EQ(trace.refs.size(), 1000u);
    EXPECT_EQ(trace.name, "xsbench");
    for (const MemRef &ref : trace.refs) {
        const MemRef expect = b->next();
        ASSERT_EQ(ref.vaddr, expect.vaddr);
        ASSERT_EQ(ref.isWrite, expect.isWrite);
        ASSERT_EQ(ref.indirect, expect.indirect);
        ASSERT_EQ(ref.indirectFuture, expect.indirectFuture);
    }
}

TEST(Trace, WriteReadRoundTrip)
{
    auto workload = makeWorkload("spmv", 9);
    const Trace original = recordTrace(*workload, 2000);
    const std::string path = tempPath("roundtrip.trace");
    writeTrace(original, path);
    const Trace loaded = readTrace(path);
    EXPECT_EQ(loaded.name, original.name);
    ASSERT_EQ(loaded.refs.size(), original.refs.size());
    for (std::size_t i = 0; i < loaded.refs.size(); ++i) {
        ASSERT_EQ(loaded.refs[i].vaddr, original.refs[i].vaddr) << i;
        ASSERT_EQ(loaded.refs[i].isWrite, original.refs[i].isWrite);
        ASSERT_EQ(loaded.refs[i].stream, original.refs[i].stream);
        ASSERT_EQ(loaded.refs[i].indirect, original.refs[i].indirect);
        ASSERT_EQ(loaded.refs[i].indirectFuture,
                  original.refs[i].indirectFuture);
    }
    std::remove(path.c_str());
}

TEST(Trace, WorkloadReplaysInOrder)
{
    Trace trace;
    trace.name = "toy";
    for (Addr i = 0; i < 10; ++i)
        trace.refs.push_back(MemRef{i * kPageBytes, false, 0, false,
                                    kInvalidAddr});
    TraceWorkload replay(trace);
    for (Addr i = 0; i < 10; ++i)
        EXPECT_EQ(replay.next().vaddr, i * kPageBytes);
    // Wraps around.
    EXPECT_EQ(replay.next().vaddr, 0u);
}

TEST(Trace, WorkloadFootprintSpansAddresses)
{
    Trace trace;
    trace.name = "toy";
    trace.refs.push_back(MemRef{0x1000, false, 0, false, kInvalidAddr});
    trace.refs.push_back(MemRef{0x9000, false, 0, false, kInvalidAddr});
    TraceWorkload replay(trace);
    EXPECT_EQ(replay.footprintBytes(), 0x8001u);
}

TEST(Trace, ReplayedRunMatchesGeneratorRun)
{
    // The trace workflow must be timing-transparent: simulating a
    // recorded trace gives the same runtime as the live generator,
    // provided the replay uses the same MLP hint.
    const std::uint64_t refs = 20000;
    SystemConfig cfg = SystemConfig::skylakeScaled();

    System live(cfg, makeWorkload("mcf", cfg.seed));
    const RunResult live_result = live.run(refs);

    auto source = makeWorkload("mcf", cfg.seed);
    Trace trace = recordTrace(*source, refs);
    System replay(cfg, std::make_unique<TraceWorkload>(
                                std::move(trace), source->mlpHint()));
    const RunResult replay_result = replay.run(refs);

    EXPECT_EQ(replay_result.runtime, live_result.runtime);
    EXPECT_EQ(replay_result.core().walks, live_result.core().walks);
}

TEST(TraceDeathTest, MissingFileIsFatal)
{
    EXPECT_DEATH((void)readTrace("/nonexistent/path/x.trace"),
                 "cannot open");
}

TEST(TraceDeathTest, CorruptMagicIsFatal)
{
    const std::string path = tempPath("corrupt.trace");
    std::FILE *file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::fputs("JUNKJUNKJUNKJUNK", file);
    std::fclose(file);
    EXPECT_DEATH((void)readTrace(path), "not a TEMPO trace");
    std::remove(path.c_str());
}

TEST(TraceDeathTest, EmptyTraceWorkloadRejected)
{
    Trace trace;
    trace.name = "empty";
    EXPECT_DEATH(TraceWorkload{std::move(trace)}, "empty trace");
}

} // namespace
} // namespace tempo
