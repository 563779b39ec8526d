/**
 * @file
 * Lightweight statistics: named scalar counters, ratios, and histograms,
 * grouped per component and dumpable as text or CSV.
 */

#ifndef TEMPO_STATS_STATS_HH
#define TEMPO_STATS_STATS_HH

#include <cmath>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace tempo::stats {

class Report;

/** A named 64-bit event counter. */
class Scalar
{
  public:
    Scalar() = default;

    void inc(std::uint64_t n = 1) { value_ += n; }
    void set(std::uint64_t v) { value_ = v; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

    Scalar &operator++() { ++value_; return *this; }
    Scalar &operator+=(std::uint64_t n) { value_ += n; return *this; }

  private:
    std::uint64_t value_ = 0;
};

/** Running mean/min/max of a sampled quantity (e.g. latency). */
class Distribution
{
  public:
    void
    sample(double v)
    {
        // NaN would poison sum/min/max for the rest of the run; a
        // windowed sampler can legitimately feed a NaN-producing ratio
        // from an empty window, so ignore it rather than assert.
        if (std::isnan(v))
            return;
        sum_ += v;
        ++count_;
        if (count_ == 1 || v < min_)
            min_ = v;
        if (count_ == 1 || v > max_)
            max_ = v;
    }

    /**
     * Fold another distribution into this one. An empty side contributes
     * nothing — in particular its zero-initialised min/max never leak
     * into the merged extrema.
     */
    void
    merge(const Distribution &other)
    {
        if (other.count_ == 0)
            return;
        if (count_ == 0) {
            *this = other;
            return;
        }
        sum_ += other.sum_;
        count_ += other.count_;
        if (other.min_ < min_)
            min_ = other.min_;
        if (other.max_ > max_)
            max_ = other.max_;
    }

    void
    reset()
    {
        sum_ = 0;
        count_ = 0;
        min_ = 0;
        max_ = 0;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return min_; }
    double max() const { return max_; }

  private:
    double sum_ = 0;
    std::uint64_t count_ = 0;
    double min_ = 0;
    double max_ = 0;
};

/** Fixed-bucket histogram over [0, bucket_width * num_buckets). */
class Histogram
{
  public:
    Histogram(double bucket_width = 1.0, std::size_t num_buckets = 16)
        : bucketWidth_(bucket_width), buckets_(num_buckets, 0)
    {
    }

    void
    sample(double v)
    {
        // Range-check in double BEFORE converting: casting a negative
        // or out-of-range double to an unsigned integer is undefined
        // behaviour. Negative samples clamp to bucket 0; oversized
        // ones land in a dedicated overflow bucket so out-of-range
        // mass stays visible instead of inflating the last bin.
        std::size_t idx = 0;
        if (v > 0.0) {
            const double scaled = v / bucketWidth_;
            if (scaled >= static_cast<double>(buckets_.size())) {
                ++overflow_;
                ++count_;
                return;
            }
            idx = static_cast<std::size_t>(scaled);
        }
        ++buckets_[idx];
        ++count_;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t bucket(std::size_t i) const { return buckets_.at(i); }
    std::uint64_t overflow() const { return overflow_; }

    /**
     * Append "<prefix>bucket_<i>" per bin plus "<prefix>overflow",
     * "<prefix>count" and "<prefix>bucket_width" to a report, so
     * histograms show up in text/CSV/JSON dumps alongside scalars.
     */
    void addTo(Report &report, const std::string &prefix) const;

    void
    reset()
    {
        for (auto &b : buckets_)
            b = 0;
        overflow_ = 0;
        count_ = 0;
    }

  private:
    double bucketWidth_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
};

/** Safe ratio helper: 0 when the denominator is 0. */
inline double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

inline double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/**
 * An ordered collection of named values for reporting. Components expose a
 * report() method that fills one of these; the harness prints them.
 */
class Report
{
  public:
    void add(const std::string &name, double value);
    /**
     * Stored as double, so integers above 2^53 lose precision (IEEE 754
     * doubles have a 53-bit significand). Simulator counters stay far
     * below that — ~9e15, i.e. millions of years of simulated cycles —
     * and a debug-build assert in stats.cc enforces it.
     */
    void add(const std::string &name, std::uint64_t value);

    /** Merge another report under a prefix ("dram." etc.). */
    void merge(const std::string &prefix, const Report &other);

    const std::vector<std::pair<std::string, double>> &
    entries() const
    {
        return entries_;
    }

    /** Value by exact name; panics if absent. */
    double get(const std::string &name) const;

    /** True when a value with the exact name exists. */
    bool has(const std::string &name) const;

    /** Pretty text dump, one "name = value" per line. */
    void printText(std::ostream &os) const;

    /** CSV dump: header row of names, then one row of values. */
    void printCsv(std::ostream &os) const;

  private:
    std::vector<std::pair<std::string, double>> entries_;
};

} // namespace tempo::stats

#endif // TEMPO_STATS_STATS_HH
