#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/profiler.hh"
#include "stats/stats.hh"

namespace tempo::stats {
namespace {

TEST(Scalar, IncrementAndReset)
{
    Scalar s;
    EXPECT_EQ(s.value(), 0u);
    s.inc();
    s.inc(4);
    ++s;
    s += 10;
    EXPECT_EQ(s.value(), 16u);
    s.reset();
    EXPECT_EQ(s.value(), 0u);
    s.set(99);
    EXPECT_EQ(s.value(), 99u);
}

TEST(Distribution, TracksMinMaxMean)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.mean(), 0.0);
    d.sample(10);
    d.sample(20);
    d.sample(0);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.mean(), 10.0);
    EXPECT_DOUBLE_EQ(d.min(), 0.0);
    EXPECT_DOUBLE_EQ(d.max(), 20.0);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
}

TEST(Distribution, IgnoresNan)
{
    // A NaN sample would poison sum/min/max for the rest of the run;
    // windowed samplers can legitimately produce one from an empty
    // window's ratio, so it must be dropped, not asserted on.
    Distribution d;
    d.sample(std::nan(""));
    EXPECT_EQ(d.count(), 0u);
    d.sample(4);
    d.sample(std::nan(""));
    d.sample(8);
    EXPECT_EQ(d.count(), 2u);
    EXPECT_DOUBLE_EQ(d.mean(), 6.0);
    EXPECT_DOUBLE_EQ(d.min(), 4.0);
    EXPECT_DOUBLE_EQ(d.max(), 8.0);
}

TEST(Distribution, MergeFoldsWindows)
{
    Distribution total;
    Distribution window;

    // Empty into empty, and empty into full: nothing changes, and the
    // empty side's zero-initialised min/max never leak into extrema.
    total.merge(window);
    EXPECT_EQ(total.count(), 0u);
    total.sample(5);
    total.sample(7);
    total.merge(window);
    EXPECT_EQ(total.count(), 2u);
    EXPECT_DOUBLE_EQ(total.min(), 5.0);

    // Full into empty copies the source.
    Distribution fresh;
    fresh.merge(total);
    EXPECT_EQ(fresh.count(), 2u);
    EXPECT_DOUBLE_EQ(fresh.min(), 5.0);
    EXPECT_DOUBLE_EQ(fresh.max(), 7.0);

    // Full into full sums counts and widens the extrema.
    window.sample(1);
    window.sample(20);
    total.merge(window);
    EXPECT_EQ(total.count(), 4u);
    EXPECT_DOUBLE_EQ(total.sum(), 33.0);
    EXPECT_DOUBLE_EQ(total.min(), 1.0);
    EXPECT_DOUBLE_EQ(total.max(), 20.0);
}

TEST(Histogram, BucketsSamples)
{
    // Pins in-range behaviour: bucket edges are [i*w, (i+1)*w) and an
    // out-of-range sample must NOT inflate the last bin.
    Histogram h(10.0, 4);
    h.sample(0);
    h.sample(9.9);
    h.sample(10);
    h.sample(35);
    h.sample(1000); // out of range: counted in the overflow bucket
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 0u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
}

TEST(Histogram, NegativeSamplesClampToFirstBucket)
{
    // Casting a negative double to std::size_t is UB; sample() must
    // range-check in double first and clamp below-range values to
    // bucket 0 (they arise from, e.g., negative latency deltas when a
    // merged request completes before its nominal issue).
    Histogram h(10.0, 4);
    h.sample(-0.5);
    h.sample(-1e18); // far below any bucket
    h.sample(5);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.bucket(0), 3u);
    EXPECT_EQ(h.bucket(1), 0u);
    EXPECT_EQ(h.bucket(3), 0u);
}

TEST(Histogram, HugeSamplesLandInOverflow)
{
    // Values whose scaled index exceeds the bucket range are counted in
    // the overflow bucket without ever performing an out-of-range
    // float->int conversion.
    Histogram h(1.0, 4);
    h.sample(1e30);
    h.sample(4.0); // exactly one past the last edge
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.bucket(3), 0u);
    h.sample(3.999);
    EXPECT_EQ(h.bucket(3), 1u);
}

TEST(Histogram, AddToEmitsBucketsAndOverflow)
{
    Histogram h(10.0, 2);
    h.sample(5);
    h.sample(15);
    h.sample(99); // overflow
    Report r;
    h.addTo(r, "lat.");
    EXPECT_DOUBLE_EQ(r.get("lat.bucket_0"), 1.0);
    EXPECT_DOUBLE_EQ(r.get("lat.bucket_1"), 1.0);
    EXPECT_DOUBLE_EQ(r.get("lat.overflow"), 1.0);
    EXPECT_DOUBLE_EQ(r.get("lat.count"), 3.0);
    EXPECT_DOUBLE_EQ(r.get("lat.bucket_width"), 10.0);
}

TEST(Ratio, HandlesZeroDenominator)
{
    EXPECT_EQ(ratio(std::uint64_t{5}, std::uint64_t{0}), 0.0);
    EXPECT_DOUBLE_EQ(ratio(std::uint64_t{1}, std::uint64_t{4}), 0.25);
    EXPECT_EQ(ratio(1.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(ratio(3.0, 6.0), 0.5);
}

TEST(Report, AddAndGet)
{
    Report r;
    r.add("alpha", 1.5);
    r.add("beta", std::uint64_t{7});
    EXPECT_DOUBLE_EQ(r.get("alpha"), 1.5);
    EXPECT_DOUBLE_EQ(r.get("beta"), 7.0);
    EXPECT_TRUE(r.has("alpha"));
    EXPECT_FALSE(r.has("gamma"));
}

TEST(ReportDeathTest, GetMissingPanics)
{
    Report r;
    EXPECT_DEATH(r.get("nope"), "no stat named");
}

TEST(Report, MergeAddsPrefix)
{
    Report inner;
    inner.add("x", 1.0);
    Report outer;
    outer.add("y", 2.0);
    outer.merge("sub.", inner);
    EXPECT_DOUBLE_EQ(outer.get("sub.x"), 1.0);
    EXPECT_DOUBLE_EQ(outer.get("y"), 2.0);
}

TEST(Report, PreservesInsertionOrder)
{
    Report r;
    r.add("z", 1.0);
    r.add("a", 2.0);
    ASSERT_EQ(r.entries().size(), 2u);
    EXPECT_EQ(r.entries()[0].first, "z");
    EXPECT_EQ(r.entries()[1].first, "a");
}

TEST(Report, TextOutputContainsNames)
{
    Report r;
    r.add("runtime", 123.0);
    std::ostringstream os;
    r.printText(os);
    EXPECT_NE(os.str().find("runtime"), std::string::npos);
    EXPECT_NE(os.str().find("123"), std::string::npos);
}

TEST(Report, CsvOutputHasHeaderAndRow)
{
    Report r;
    r.add("a", 1.0);
    r.add("b", 2.0);
    std::ostringstream os;
    r.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

// --- Profiler aggregation --------------------------------------------

TEST(ProfilerTotals, AddMergesPerWorkerWindows)
{
    prof::Totals a, b;
    a.ns[0] = 10;
    a.calls[0] = 2;
    a.ns[prof::kNumComponents - 1] = 7;
    b.ns[0] = 5;
    b.calls[0] = 1;
    b.calls[prof::kNumComponents - 1] = 3;
    a.add(b);
    EXPECT_EQ(a.ns[0], 15u);
    EXPECT_EQ(a.calls[0], 3u);
    EXPECT_EQ(a.ns[prof::kNumComponents - 1], 7u);
    EXPECT_EQ(a.calls[prof::kNumComponents - 1], 3u);
}

} // namespace
} // namespace tempo::stats
