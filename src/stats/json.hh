/**
 * @file
 * JSON for machine-readable experiment results, sweep records, fabric
 * files and snapshots.
 *
 * Two layers:
 *  - Json: the one JSON value. It is built (object/array/set/push),
 *    parsed (parseJson), read (find/at/as*, members, elements) and
 *    written (dump pretty, dumpCompact on one line) by one recursive
 *    writer. Objects keep insertion order. A number is its token text:
 *    Json(std::uint64_t) and Json(double) format at construction
 *    (doubles as shortest round-trip, NaN/Inf as 0), and the parser
 *    keeps the token it read, so a parsed document re-emits its own
 *    bytes and emission is byte-deterministic for identical values.
 *  - The bench result schema ("tempo-bench-1"): one file per bench
 *    binary / tool invocation, listing every simulation point with its
 *    workload, config overrides, runtime, energy breakdown, and
 *    headline counters. This is what BENCH_<name>.json files contain
 *    and what the golden-stats regression test validates.
 *
 * Schema (all keys always present, points in run order):
 *
 *   {
 *     "schema": "tempo-bench-1",
 *     "bench": "<binary or tool name>",
 *     "refs": <measured references per point>,
 *     "seed": <base RNG seed>,
 *     "experiment": {
 *       "points": <uint>, "ok": <uint>, "failed": <uint>,
 *       "timed_out": <uint>, "retries": <uint>
 *     },
 *     "points": [
 *       {
 *         "workload": "<name or mix label>",
 *         "config": { "<section.key>": "<value>", ... },
 *         "status": "ok" | "failed" | "timed_out",
 *         "runtime_cycles": <uint>,
 *         "energy": { "core_static": <num>, ..., "total": <num> },
 *         "counters": { "<name>": <num>, ... },
 *         "timeseries": {            // only when sampling was enabled
 *           "window_cycles": <uint>,
 *           "<column>": [ <num>, ... ], ...
 *         }
 *       }, ...
 *     ],
 *     "failures": [
 *       {
 *         "point": <index into points>,
 *         "workload": "<name>",
 *         "config": { ... },
 *         "status": "failed" | "timed_out",
 *         "error": "<exception what()>",
 *         "attempts": <uint>,
 *         "seed": <seed of the final attempt>,
 *         "digest": "<16-hex-digit point digest>"
 *       }, ...
 *     ]
 *   }
 *
 * The "experiment" and "failures" keys are always present (failures is
 * [] on a clean run), and every value is a deterministic function of
 * the points, so emission stays byte-identical across thread counts
 * and across checkpoint-resumed runs.
 */

#ifndef TEMPO_STATS_JSON_HH
#define TEMPO_STATS_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace tempo::stats {

/** An ordered JSON value: built, parsed, read and written. */
class Json
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Json() = default;
    Json(bool v) : kind_(Kind::Bool), bool_(v) {}
    Json(std::uint64_t v);
    Json(int v) : Json(static_cast<std::uint64_t>(v)) {}
    Json(double v);
    Json(std::string v) : kind_(Kind::String), text_(std::move(v)) {}
    Json(const char *v) : kind_(Kind::String), text_(v) {}

    static Json object();
    static Json array();

    /** Append a key/value pair; panics unless this is an object. */
    Json &set(const std::string &key, Json value);
    /** Append an element; panics unless this is an array. */
    Json &push(Json value);

    Kind kind() const { return kind_; }
    /** Array elements; empty for any other kind. */
    const std::vector<Json> &elements() const { return elements_; }
    /** Object members in order; empty for any other kind. */
    const std::vector<std::pair<std::string, Json>> &
    members() const
    {
        return members_;
    }

    /** Member lookup; nullptr when absent or not an object. */
    const Json *find(const std::string &key) const;
    /** Member lookup; throws std::runtime_error when absent. */
    const Json &at(const std::string &key) const;
    /** Exact integer value; throws on non-numbers or overflow. */
    std::uint64_t asUint64() const;
    /** Round-trip-exact double; throws on non-numbers. */
    double asDouble() const;
    /** String contents; throws on non-strings. */
    const std::string &asString() const;

    /** Pretty-print with 2-space indentation and a trailing newline.
     * Deterministic: same document, same bytes. */
    void write(std::ostream &os) const;
    std::string dump() const;
    /** Single line with no whitespace and no trailing newline (for
     * JSONL records). */
    std::string dumpCompact() const;

  private:
    friend struct JsonParser;

    /** The one writer: @p indent spaces per level, or 0 for compact. */
    void write(std::ostream &os, int indent, int depth) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    std::string text_; //!< string contents, or the number token
    std::vector<Json> elements_;                        // array
    std::vector<std::pair<std::string, Json>> members_; // object
};

inline constexpr int kJsonMaxDepth = 64;

/**
 * Parse one JSON document (objects, arrays, strings, numbers, bools,
 * null; the subset Json emits). Containers nest at most kJsonMaxDepth
 * deep; the deepest document this program writes nests 5.
 * @throws std::runtime_error with position info on malformed input.
 */
Json parseJson(const std::string &text);

/** 16-hex-digit lowercase digest spelling (records, fabric file names,
 * manifests, snapshots and the bench "failures" list all use it). */
std::string digestHex(std::uint64_t digest);

/** Inverse of digestHex(). @throws std::runtime_error on bad input. */
std::uint64_t parseDigestHex(const std::string &text);

/** One simulation point of a bench result file. */
struct BenchPoint {
    std::string workload;
    /** Config overrides relative to the preset, "section.key" form. */
    std::vector<std::pair<std::string, std::string>> config;
    std::uint64_t runtimeCycles = 0;
    std::vector<std::pair<std::string, double>> energy;
    std::vector<std::pair<std::string, double>> counters;

    /** Windowed time-series sampling (ISSUE 4). Emitted as an optional
     * per-point "timeseries" object when windowCycles > 0; absent from
     * default runs so seed output stays byte-identical. */
    std::uint64_t timeseriesWindow = 0;
    std::vector<std::pair<std::string, std::vector<double>>> timeseries;

    // Fault-isolation fields (ISSUE 3). For "ok" points the error is
    // empty and the measured fields above are real; for "failed" /
    // "timed_out" points the measurements are zero.
    std::string status = "ok"; //!< "ok" | "failed" | "timed_out"
    std::string error;         //!< what() of the captured exception
    unsigned attempts = 1;     //!< 1 + retries consumed
    std::uint64_t seedUsed = 0; //!< seed of the final attempt
    std::uint64_t digest = 0;   //!< stable point digest (checkpoint key)
};

/** Build a "tempo-bench-1" document. */
Json benchJson(const std::string &bench, std::uint64_t refs,
               std::uint64_t seed, const std::vector<BenchPoint> &points);

/**
 * Write a "tempo-bench-1" file to @p path.
 * @throws std::runtime_error when the file cannot be written.
 */
void writeBenchJson(const std::string &path, const std::string &bench,
                    std::uint64_t refs, std::uint64_t seed,
                    const std::vector<BenchPoint> &points);

} // namespace tempo::stats

#endif // TEMPO_STATS_JSON_HH
