#include "fabric/claim.hh"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <system_error>
#include <thread>

#include <unistd.h>

#include "stats/json.hh"

namespace tempo::fabric {

namespace fs = std::filesystem;
using stats::digestHex;

void
writeFileAtomic(const std::string &path, const std::string &content)
{
    // One temp name per call: threads of one process that publish the
    // same path must never truncate or rename each other's temp file.
    static std::atomic<std::uint64_t> nextNonce{0};
    const std::string tmp = path + ".tmp." + std::to_string(::getpid())
        + "." + std::to_string(std::hash<std::thread::id>{}(
                    std::this_thread::get_id()))
        + "." + std::to_string(nextNonce.fetch_add(1));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        out.write(content.data(),
                  static_cast<std::streamsize>(content.size()));
        out.flush();
        if (!out) {
            std::error_code ignore;
            fs::remove(tmp, ignore);
            throw std::runtime_error("cannot write " + tmp);
        }
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        std::error_code ignore;
        fs::remove(tmp, ignore);
        throw std::runtime_error("cannot publish " + path + ": " +
                                 ec.message());
    }
}

double
fileAgeSec(const std::string &path)
{
    std::error_code ec;
    const fs::file_time_type written = fs::last_write_time(path, ec);
    if (ec)
        return std::numeric_limits<double>::infinity();
    const auto age = fs::file_time_type::clock::now() - written;
    return std::chrono::duration<double>(age).count();
}

ClaimDir::ClaimDir(std::string dir, std::string workerId)
    : dir_(std::move(dir)), worker_(std::move(workerId))
{
}

std::string
ClaimDir::path(std::uint64_t digest) const
{
    return dir_ + "/claim_" + digestHex(digest);
}

bool
ClaimDir::tryClaim(std::uint64_t digest) const
{
    // Publish by hard link: link(2) is the one primitive here that is
    // both atomic and exclusive on every POSIX filesystem (rename
    // clobbers, O_EXCL+close+rename is two steps).
    const std::string tmp =
        dir_ + "/tmp_claim_" + digestHex(digest) + "_" + worker_;
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        out << worker_ << '\n';
        out.flush();
        if (!out) {
            std::error_code ignore;
            fs::remove(tmp, ignore);
            throw std::runtime_error("cannot write claim temp " + tmp);
        }
    }
    std::error_code ec;
    fs::create_hard_link(tmp, path(digest), ec);
    std::error_code ignore;
    fs::remove(tmp, ignore);
    if (!ec)
        return true;
    if (ec == std::errc::file_exists)
        return false;
    throw std::runtime_error("cannot claim " + path(digest) + ": " +
                             ec.message());
}

std::string
ClaimDir::owner(std::uint64_t digest) const
{
    std::ifstream in(path(digest), std::ios::binary);
    if (!in)
        return "";
    std::string name;
    std::getline(in, name);
    return name;
}

double
ClaimDir::ageSec(std::uint64_t digest) const
{
    return fileAgeSec(path(digest));
}

void
ClaimDir::remove(std::uint64_t digest) const
{
    std::error_code ignore;
    fs::remove(path(digest), ignore);
}

} // namespace tempo::fabric
