#include "fabric/heartbeat.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <filesystem>
#include <fstream>

#include <signal.h>
#include <unistd.h>

#include "fabric/claim.hh"

namespace tempo::fabric {

namespace fs = std::filesystem;

namespace {

std::string
hostName()
{
    char name[HOST_NAME_MAX + 1] = {};
    if (::gethostname(name, sizeof(name) - 1) != 0)
        return "";
    return name;
}

/** What a beat writes: "<hostname> <pid>". */
std::string
beatContent()
{
    return hostName() + " " + std::to_string(::getpid()) + "\n";
}

} // namespace

Heartbeat::Heartbeat(std::string dir, std::string workerId,
                     double periodSec)
    : dir_(std::move(dir)), worker_(std::move(workerId)),
      periodSec_(periodSec > 0 ? periodSec : 1.0)
{
    writeFileAtomic(path(dir_, worker_), beatContent());
    thread_ = std::thread([this] { beatLoop(); });
}

Heartbeat::~Heartbeat()
{
    stop();
}

void
Heartbeat::stop()
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
}

void
Heartbeat::beatLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
        cv_.wait_for(lock, std::chrono::duration<double>(periodSec_),
                     [this] { return stop_; });
        if (stop_)
            return;
        lock.unlock();
        try {
            writeFileAtomic(path(dir_, worker_), beatContent());
        } catch (const std::exception &) {
            // A transiently unwritable directory must not kill the
            // worker; the next beat retries, and persistent failure
            // just makes this worker look dead (safe direction).
        }
        lock.lock();
    }
}

std::string
Heartbeat::path(const std::string &dir, const std::string &workerId)
{
    return dir + "/hb_" + workerId;
}

double
Heartbeat::ageSec(const std::string &dir, const std::string &workerId)
{
    return fileAgeSec(path(dir, workerId));
}

bool
Heartbeat::ownerExited(const std::string &dir, const std::string &workerId)
{
    std::ifstream in(path(dir, workerId), std::ios::binary);
    std::string host;
    long long pid = 0;
    if (!(in >> host >> pid) || pid <= 0 || host != hostName())
        return false;
    return ::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH;
}

std::vector<std::string>
Heartbeat::listWorkers(const std::string &dir)
{
    std::vector<std::string> workers;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        // Skip a heartbeat's in-flight temp file (writeFileAtomic).
        if (name.rfind("hb_", 0) == 0
            && name.find(".tmp.") == std::string::npos)
            workers.push_back(name.substr(3));
    }
    std::sort(workers.begin(), workers.end());
    return workers;
}

} // namespace tempo::fabric
