/**
 * @file
 * Worker liveness for the sweep fabric: each worker rewrites
 * `hb_<workerId>` in the shared directory every period, and everyone
 * else judges liveness by that file's age. No sockets, no
 * registration — a worker that stops beating (crash, kill -9, network
 * partition from the shared filesystem) simply goes stale, and its
 * claims become reclaimable (see claim.hh).
 *
 * The file holds "<hostname> <pid>", so a worker on the same host can
 * tell at once that an owner's process has exited (ownerExited())
 * instead of waiting for its heartbeat to age.
 */

#ifndef TEMPO_FABRIC_HEARTBEAT_HH
#define TEMPO_FABRIC_HEARTBEAT_HH

#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace tempo::fabric {

/** Background heartbeat writer; beats once on construction so the
 * worker is visibly alive before it claims anything. */
class Heartbeat
{
  public:
    /** @throws std::runtime_error when the first beat cannot be
     * written (unwritable fabric directory). */
    Heartbeat(std::string dir, std::string workerId, double periodSec);
    ~Heartbeat();

    Heartbeat(const Heartbeat &) = delete;
    Heartbeat &operator=(const Heartbeat &) = delete;

    /** Stop beating (idempotent). The heartbeat file is left behind —
     * its age tells the story. */
    void stop();

    static std::string path(const std::string &dir,
                            const std::string &workerId);

    /** Seconds since @p workerId last beat; +infinity when it never
     * wrote a heartbeat. */
    static double ageSec(const std::string &dir,
                         const std::string &workerId);

    /** True when @p workerId's heartbeat names this host and a process
     * id that no longer exists (kill(pid, 0) fails with ESRCH). False
     * for owners on other hosts, live (or reused) process ids and
     * missing or unreadable heartbeats: they keep the age rule. */
    static bool ownerExited(const std::string &dir,
                            const std::string &workerId);

    /** Every worker id that ever wrote a heartbeat here, sorted. */
    static std::vector<std::string> listWorkers(const std::string &dir);

  private:
    void beatLoop();

    std::string dir_;
    std::string worker_;
    double periodSec_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_;
};

} // namespace tempo::fabric

#endif // TEMPO_FABRIC_HEARTBEAT_HH
