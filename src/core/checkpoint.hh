/**
 * @file
 * Sweep records: the JSONL line format of the fabric's per-worker shard
 * files (`shard_<worker>.jsonl`, see fabric/coordinator.hh), which are
 * also what `--checkpoint DIR` resumes from.
 *
 * Format: one line per finished point,
 *
 *   {"v": 1, "digest": "<16-hex pointDigest>",
 *    ["status": "failed"|"timed_out", "error": "<text>",]
 *    "attempts": <uint>, "seed": <uint>,
 *    "result": { <full RunResult encoding> }}
 *
 * A record stores the complete RunResult (every CoreStats counter, every
 * report entry and any time series), not just the flattened BenchPoint,
 * so both the bench text tables and the JSON reproduce exactly from a
 * record. Trace events are not stored.
 */

#ifndef TEMPO_CORE_CHECKPOINT_HH
#define TEMPO_CORE_CHECKPOINT_HH

#include <cstdint>
#include <string>

#include "core/system.hh"
#include "stats/json.hh"

namespace tempo {

/** Encode a finished run for a record (everything but the
 * exception_ptr, which cannot cross a process boundary, and the trace
 * events). */
stats::Json encodeRunResult(const RunResult &result);

/**
 * Rebuild a RunResult from encodeRunResult() output.
 * @throws std::runtime_error on schema mismatch.
 */
RunResult decodeRunResult(const stats::JsonValue &value);

/**
 * Encode one complete record as a single JSONL line (no trailing
 * newline). Failed and timed-out points additionally carry "status" and
 * "error" between "digest" and "attempts".
 */
std::string encodeJournalLine(std::uint64_t digest,
                              const RunResult &result);

/**
 * Decode one record line back into (digest, result). The
 * result's status fields (code, error, attempts, seedUsed, digest) are
 * fully restored; absent "status" reads ok.
 * @throws std::runtime_error on malformed input.
 */
struct JournalRecord {
    std::uint64_t digest = 0;
    RunResult result;
};
JournalRecord decodeJournalLine(const std::string &line);

/**
 * Append-only file whose appendLine() issues one O_APPEND write(2) per
 * line. Concurrent writers of one file (two processes under one worker
 * id) never interleave bytes within a line, and a reader tailing the
 * file mid-append sees whole lines plus at most one unterminated tail.
 */
class AtomicAppendFile
{
  public:
    /** @throws std::runtime_error when @p path cannot be opened. */
    explicit AtomicAppendFile(std::string path);
    ~AtomicAppendFile();

    AtomicAppendFile(const AtomicAppendFile &) = delete;
    AtomicAppendFile &operator=(const AtomicAppendFile &) = delete;

    /** Append @p line plus '\n' as one write; not thread-safe (callers
     * serialize), but safe against concurrent writers of the same
     * file. @throws std::runtime_error on a short or failed write. */
    void appendLine(const std::string &line);

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    int fd_ = -1;
};

/**
 * Cut an unterminated last line off @p path: the half record a kill
 * mid-append leaves behind. Without the cut, the next appended record
 * would continue that line and both would be lost. A missing file is
 * left alone. @throws std::runtime_error when the file cannot be cut.
 */
void cutUnterminatedTail(const std::string &path);

} // namespace tempo

#endif // TEMPO_CORE_CHECKPOINT_HH
