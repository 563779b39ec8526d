/**
 * @file
 * Minimal JSON emission for machine-readable experiment results.
 *
 * Two layers:
 *  - Json: an ordered, write-only JSON document builder (objects keep
 *    insertion order; doubles print as shortest round-trip so emission
 *    is byte-deterministic for identical values).
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
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace tempo::stats {

/** Ordered write-only JSON value. */
class Json
{
  public:
    Json() : kind_(Kind::Null) {}
    Json(bool v) : kind_(Kind::Bool), bool_(v) {}
    Json(std::uint64_t v) : kind_(Kind::Uint), uint_(v) {}
    Json(int v) : kind_(Kind::Uint), uint_(static_cast<std::uint64_t>(v)) {}
    Json(double v) : kind_(Kind::Double), double_(v) {}
    Json(std::string v) : kind_(Kind::String), string_(std::move(v)) {}
    Json(const char *v) : kind_(Kind::String), string_(v) {}

    static Json object();
    static Json array();

    /** Append a key/value pair; panics unless this is an object. */
    Json &set(const std::string &key, Json value);
    /** Append an element; panics unless this is an array. */
    Json &push(Json value);

    /** Pretty-print with 2-space indentation and a trailing newline at
     * top level. Deterministic: same document, same bytes. */
    void write(std::ostream &os) const;
    std::string dump() const;

    /** Single-line emission with no whitespace (for JSONL journals).
     * Same determinism guarantee as write(); no trailing newline. */
    void writeCompact(std::ostream &os) const;
    std::string dumpCompact() const;

  private:
    enum class Kind { Null, Bool, Uint, Double, String, Array, Object };

    void writeIndented(std::ostream &os, int depth) const;

    Kind kind_;
    bool bool_ = false;
    std::uint64_t uint_ = 0;
    double double_ = 0;
    std::string string_;
    std::vector<Json> elements_;                        // array
    std::vector<std::pair<std::string, Json>> members_; // object
};

/** JSON string escaping (quotes not included). */
std::string jsonEscape(const std::string &raw);

/**
 * A parsed (read-only) JSON value, the counterpart of Json for reading
 * back what this module wrote — primarily sweep checkpoint journals.
 *
 * Numbers keep their raw token so both integer and floating consumers
 * get an exact round-trip: asUint64() on "4984" returns exactly 4984,
 * asDouble() on a shortest-round-trip double token returns the bit-
 * identical double that produced it.
 */
struct JsonValue {
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    std::string text; //!< string contents, or the raw number token
    std::vector<JsonValue> elements;
    std::vector<std::pair<std::string, JsonValue>> members;

    /** Member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** Member lookup; throws std::runtime_error when absent. */
    const JsonValue &at(const std::string &key) const;

    /** Exact integer value; throws on non-numbers or overflow. */
    std::uint64_t asUint64() const;

    /** Round-trip-exact double; throws on non-numbers. */
    double asDouble() const;

    /** String contents; throws on non-strings. */
    const std::string &asString() const;
};

/**
 * Parse one JSON document (objects, arrays, strings, numbers, bools,
 * null; the subset Json emits).
 * @throws std::runtime_error with position info on malformed input.
 */
JsonValue parseJson(const std::string &text);

/**
 * Rebuild a writable Json from a parsed JsonValue, so a document can be
 * read, augmented, and re-emitted (the fabric coordinator embeds worker
 * status files into its merged snapshot this way). Number tokens
 * without '.', 'e' or '-' re-emit as exact integers; everything else
 * round-trips through the shortest-round-trip double path, so
 * re-emitting a document this module wrote reproduces its bytes.
 */
Json toJson(const JsonValue &value);

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
