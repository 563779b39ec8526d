/**
 * @file
 * The sweep fabric's execution core: the worker and coordinator loops
 * behind runFabric(), the sweep manifest, and the streaming shard
 * scanner that both roles (and the snapshot builder) merge results
 * with.
 *
 * Protocol recap (details in docs/MODEL.md "Sweep fabric"):
 *  - The point list is derived identically in every participant from
 *    the same CLI invocation; the manifest file pins its digest list
 *    so mismatched invocations fail fast instead of corrupting state.
 *  - Workers claim points by digest (claim.hh), run them behind the
 *    usual exception barrier, and append the full record (failures
 *    included; core/checkpoint.hh) to their own
 *    `shard_<workerId>.jsonl`. A worker opening its shard first cuts
 *    the unterminated line a kill mid-append left behind.
 *  - A record in any shard marks its digest done. The one exception: a
 *    point whose only record is a failure when a worker starts runs
 *    again in that worker, and in the merge an ok record supersedes a
 *    failed one. Claims whose owner stopped heartbeating are erased
 *    and re-contested; the benign worst case is a double-run whose
 *    records are byte-identical (every point is deterministic).
 *  - When every digest has a record, each participant merges all
 *    shards and returns the complete result vector, so any of them
 *    emits the same bytes a single-process `--jobs N` run would.
 *    Points a worker ran itself keep their in-memory results, trace
 *    events included.
 *  - `--checkpoint DIR` is the same protocol with one worker under a
 *    fixed id (useCheckpointDir()), so a restarted run reclaims its
 *    predecessor's claims at once.
 */

#ifndef TEMPO_FABRIC_COORDINATOR_HH
#define TEMPO_FABRIC_COORDINATOR_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.hh"

namespace tempo::fabric {

class SweepProgress;

/** The sweep identity pinned into a fabric directory. */
struct Manifest {
    std::string sweep;
    std::vector<std::uint64_t> digests;
};

/** Manifest file path; the name embeds a hash of the digest list so a
 * directory reused for a different sweep is detectable. */
std::string manifestPath(const std::string &dir,
                         const std::vector<std::uint64_t> &digests);

/**
 * Idempotently publish the manifest for this sweep.
 * @throws std::runtime_error when the directory already holds a
 *         manifest for a DIFFERENT digest list.
 */
void writeManifest(const std::string &dir, const std::string &sweep,
                   const std::vector<std::uint64_t> &digests);

/** Load the directory's manifest; false when none exists yet. When
 * @p ageSec is non-null it receives the manifest file's age (the
 * sweep's elapsed wall-clock, as the snapshot reports it). */
bool readManifest(const std::string &dir, Manifest &out,
                  double *ageSec = nullptr);

/**
 * Incremental reader over every `shard_*.jsonl` in a fabric
 * directory. poll() consumes only complete newline-terminated lines —
 * a worker killed (or merely buffered) mid-append leaves a tail that
 * is simply not consumed yet — and folds records into a digest-keyed
 * map where an ok record supersedes a failed one and otherwise the
 * first record for a digest wins. Not thread-safe.
 */
class ShardScanner
{
  public:
    explicit ShardScanner(std::string dir);

    /** Scan for new records; returns how many new digests appeared. */
    std::size_t poll();

    const std::map<std::uint64_t, RunResult> &done() const
    {
        return done_;
    }

  private:
    std::string dir_;
    std::map<std::string, std::uint64_t> offsets_; //!< consumed bytes
    std::map<std::uint64_t, RunResult> done_;
};

/**
 * Fabric-mode runExperiments() body: run @p runPoint for claimed
 * points (worker role) or just supervise (coordinator role), then
 * merge every shard and return all results in point order. Both roles
 * return the complete, identical result vector. A worker calls the
 * progress tracker and opts.onPointDone for the points it runs.
 * @throws std::runtime_error when the coordinator detects a stalled
 *         sweep (points remain but no worker has heartbeat recently).
 */
std::vector<RunResult>
runFabric(const ExperimentOptions &opts,
          const std::vector<std::uint64_t> &digests,
          const std::function<RunResult(std::size_t)> &runPoint,
          SweepProgress *progress);

} // namespace tempo::fabric

#endif // TEMPO_FABRIC_COORDINATOR_HH
