/**
 * @file
 * Point claiming for the scale-out sweep fabric, plus the small
 * filesystem helpers every fabric module shares (atomic file publish,
 * file-age queries).
 *
 * A claim is a file `claim_<16-hex digest>` in the shared fabric
 * directory whose content names the owning worker. Publication is a
 * hard link from a private temp file: link(2) fails with EEXIST when
 * the target exists, so exactly one contender wins no matter how many
 * workers race — rename(2) would silently clobber. Claims are
 * intentionally never removed by their owner on completion; the shard
 * record is the durable "done" signal, and a claim whose owner stopped
 * heartbeating is evidence of a crash, which any worker may erase and
 * re-contest (see coordinator.cc for the reclaim policy).
 */

#ifndef TEMPO_FABRIC_CLAIM_HH
#define TEMPO_FABRIC_CLAIM_HH

#include <cstdint>
#include <string>

namespace tempo::fabric {

/** Write @p content to @p path via a per-call unique temp file and
 * rename, so readers only ever see complete contents.
 * @throws std::runtime_error when the write fails. */
void writeFileAtomic(const std::string &path, const std::string &content);

/** Seconds since @p path was last written; +infinity when the file
 * does not exist (or cannot be queried). */
double fileAgeSec(const std::string &path);

/** The claim files of one fabric directory, from one worker's point
 * of view. All operations are lock-free filesystem races by design;
 * the worst race outcome is a benign double-run (both runs produce
 * identical bytes, and the shard merge is digest-keyed first-wins). */
class ClaimDir
{
  public:
    ClaimDir(std::string dir, std::string workerId);

    /** Atomically claim @p digest for this worker; false when some
     * worker (possibly a previous incarnation of this one) already
     * holds it. */
    bool tryClaim(std::uint64_t digest) const;

    /** Worker named inside the claim file; "" when unclaimed (or the
     * claim vanished mid-read). */
    std::string owner(std::uint64_t digest) const;

    /** Age of the claim file itself (fallback staleness signal when
     * the owner never wrote a heartbeat); +infinity when unclaimed. */
    double ageSec(std::uint64_t digest) const;

    /** Erase a claim believed stale so it can be re-contested. Safe to
     * race: at most one contender's subsequent tryClaim() wins. */
    void remove(std::uint64_t digest) const;

    std::string path(std::uint64_t digest) const;
    const std::string &workerId() const { return worker_; }

  private:
    std::string dir_;
    std::string worker_;
};

} // namespace tempo::fabric

#endif // TEMPO_FABRIC_CLAIM_HH
