#include "core/checkpoint.hh"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

namespace tempo {

namespace {

using stats::Json;

/**
 * One field-visitor enumerates CoreStats for both encode and decode so
 * the two cannot drift apart. The visitor receives (name, reference);
 * doubles and uint64s are distinguished by overload.
 */
template <typename Stats, typename Fn>
void
visitCoreStats(Stats &s, Fn &&fn)
{
    fn("refs", s.refs);
    fn("page_faults", s.pageFaults);
    fn("walks", s.walks);
    fn("pt_dram_accesses", s.ptDramAccesses);
    fn("leaf_pt_dram_accesses", s.leafPtDramAccesses);
    fn("walks_with_leaf_dram", s.walksWithLeafDram);
    fn("pt_dram_l0", s.ptDramByLevel[0]);
    fn("pt_dram_l1", s.ptDramByLevel[1]);
    fn("pt_dram_l2", s.ptDramByLevel[2]);
    fn("pt_dram_l3", s.ptDramByLevel[3]);
    fn("pt_dram_l4", s.ptDramByLevel[4]);
    fn("leaf_pt_l1_hits", s.leafPtL1Hits);
    fn("leaf_pt_l2_hits", s.leafPtL2Hits);
    fn("leaf_pt_llc_hits", s.leafPtLlcHits);
    fn("replay_dram_accesses", s.replayDramAccesses);
    fn("regular_dram_accesses", s.regularDramAccesses);
    fn("replay_after_dram_walk", s.replayAfterDramWalk);
    fn("replay_dram_after_dram_walk", s.replayDramAfterDramWalk);
    fn("replay_llc_hits", s.replayLlcHits);
    fn("replay_private_hits", s.replayPrivateHits);
    fn("replay_merged", s.replayMerged);
    fn("replay_row_hits", s.replayRowHits);
    fn("replay_array", s.replayArray);
    fn("pt_mshr_merges", s.ptMshrMerges);
    fn("data_mshr_merges", s.dataMshrMerges);
    fn("imp_issued", s.impIssued);
    fn("stride_issued", s.strideIssued);
    fn("imp_dropped_inflight", s.impDroppedInflight);
    fn("imp_faults", s.impFaults);
    fn("tlb_prefetches", s.tlbPrefetches);
    fn("cycles_ptw_dram", s.cyclesPtwDram);
    fn("cycles_replay_dram", s.cyclesReplayDram);
    fn("cycles_other_dram", s.cyclesOtherDram);
    fn("cycles_total", s.cyclesTotal);
    fn("last_finish", s.lastFinish);
}

struct CoreEncoder {
    Json &obj;
    void operator()(const char *name, std::uint64_t v) { obj.set(name, v); }
    void operator()(const char *name, double v) { obj.set(name, v); }
};

struct CoreDecoder {
    const Json &obj;
    void
    operator()(const char *name, std::uint64_t &v)
    {
        v = obj.at(name).asUint64();
    }
    void
    operator()(const char *name, double &v)
    {
        v = obj.at(name).asDouble();
    }
};

} // namespace

stats::Json
encodeRunResult(const RunResult &result)
{
    Json doc = Json::object();
    doc.set("runtime", result.runtime);

    Json energy = Json::object();
    energy.set("core_static", result.energy.coreStatic);
    energy.set("dram_static", result.energy.dramStatic);
    energy.set("dram_dynamic", result.energy.dramDynamic);
    energy.set("mc_dynamic", result.energy.mcDynamic);
    doc.set("energy", std::move(energy));

    Json core = Json::object();
    CoreEncoder enc{core};
    visitCoreStats(result.core(), enc);
    doc.set("core", std::move(core));
    // A mix also records every app: its finish and its core stats (the
    // first repeats "core"). A one-app record needs no "apps": its one
    // app finishes at "runtime".
    if (result.appStats.size() > 1) {
        Json apps = Json::array();
        for (std::size_t i = 0; i < result.appStats.size(); ++i) {
            Json app = Json::object();
            app.set("finish", result.appFinish[i]);
            CoreEncoder app_enc{app};
            visitCoreStats(result.appStats[i], app_enc);
            apps.push(std::move(app));
        }
        doc.set("apps", std::move(apps));
    }

    doc.set("superpage_coverage", result.superpageCoverage);
    doc.set("coverage_2m", result.coverage2M);
    doc.set("coverage_1g", result.coverage1G);
    doc.set("dram_ptw", result.dramPtw);
    doc.set("dram_replay", result.dramReplay);
    doc.set("dram_other", result.dramOther);

    // The report is ordered name/value pairs; order matters (it is the
    // emission order of "report.*" counters in the bench JSON).
    Json report = Json::array();
    for (const auto &[name, value] : result.report.entries()) {
        Json entry = Json::array();
        entry.push(name);
        entry.push(value);
        report.push(std::move(entry));
    }
    doc.set("report", std::move(report));

    // Optional time-series payload: only present when the run sampled.
    // Trace events are not recorded (a resumed point rereads counters
    // but cannot regenerate a trace file).
    if (result.obs && !result.obs->timeseries.empty()) {
        Json timeseries = Json::object();
        timeseries.set("window_cycles",
                       result.obs->timeseries.windowCycles);
        for (const auto &[column, values] : result.obs->timeseries.columns) {
            Json samples = Json::array();
            for (double v : values)
                samples.push(v);
            timeseries.set(column, std::move(samples));
        }
        doc.set("timeseries", std::move(timeseries));
    }
    return doc;
}

RunResult
decodeRunResult(const stats::Json &value)
{
    RunResult result;
    result.runtime = value.at("runtime").asUint64();

    const Json &energy = value.at("energy");
    result.energy.coreStatic = energy.at("core_static").asDouble();
    result.energy.dramStatic = energy.at("dram_static").asDouble();
    result.energy.dramDynamic = energy.at("dram_dynamic").asDouble();
    result.energy.mcDynamic = energy.at("mc_dynamic").asDouble();

    if (const Json *apps = value.find("apps")) {
        for (const Json &app : apps->elements()) {
            result.appFinish.push_back(app.at("finish").asUint64());
            CoreDecoder dec{app};
            visitCoreStats(result.appStats.emplace_back(), dec);
        }
    } else {
        result.appFinish.push_back(result.runtime);
        CoreDecoder dec{value.at("core")};
        visitCoreStats(result.appStats.emplace_back(), dec);
    }

    result.superpageCoverage = value.at("superpage_coverage").asDouble();
    result.coverage2M = value.at("coverage_2m").asDouble();
    result.coverage1G = value.at("coverage_1g").asDouble();
    result.dramPtw = value.at("dram_ptw").asUint64();
    result.dramReplay = value.at("dram_replay").asUint64();
    result.dramOther = value.at("dram_other").asUint64();

    const Json &report = value.at("report");
    if (report.kind() != Json::Kind::Array)
        throw std::runtime_error("journal: report is not an array");
    for (const Json &entry : report.elements()) {
        if (entry.kind() != Json::Kind::Array ||
            entry.elements().size() != 2)
            throw std::runtime_error("journal: bad report entry");
        result.report.add(entry.elements()[0].asString(),
                          entry.elements()[1].asDouble());
    }

    if (const Json *timeseries = value.find("timeseries")) {
        // Restored observability carries the time series only; cfg stays
        // default (trace=false), so resume never rewrites trace files.
        auto obs = std::make_shared<obs::RunObs>();
        for (const auto &[key, column] : timeseries->members()) {
            if (key == "window_cycles") {
                obs->timeseries.windowCycles = column.asUint64();
                continue;
            }
            std::vector<double> values;
            values.reserve(column.elements().size());
            for (const Json &v : column.elements())
                values.push_back(v.asDouble());
            obs->timeseries.columns.emplace_back(key, std::move(values));
        }
        result.obs = std::move(obs);
    }
    return result;
}

std::string
encodeJournalLine(std::uint64_t digest, const RunResult &result)
{
    Json doc = Json::object();
    doc.set("v", std::uint64_t(1));
    doc.set("digest", stats::digestHex(digest));
    if (!result.status.ok()) {
        doc.set("status", result.status.codeName());
        doc.set("error", result.status.error);
    }
    doc.set("attempts", std::uint64_t(result.status.attempts));
    doc.set("seed", result.status.seedUsed);
    doc.set("result", encodeRunResult(result));
    return doc.dumpCompact();
}

JournalRecord
decodeJournalLine(const std::string &line)
{
    const Json doc = stats::parseJson(line);
    JournalRecord record;
    record.digest = stats::parseDigestHex(doc.at("digest").asString());
    record.result = decodeRunResult(doc.at("result"));
    RunStatus &status = record.result.status;
    if (const Json *code = doc.find("status")) {
        const std::string &name = code->asString();
        if (name == "ok")
            status.code = RunStatus::Code::Ok;
        else if (name == "failed")
            status.code = RunStatus::Code::Failed;
        else if (name == "timed_out")
            status.code = RunStatus::Code::TimedOut;
        else
            throw std::runtime_error("journal: unknown status " + name);
        if (const Json *error = doc.find("error"))
            status.error = error->asString();
    }
    status.attempts =
        static_cast<unsigned>(doc.at("attempts").asUint64());
    status.seedUsed = doc.at("seed").asUint64();
    status.digest = record.digest;
    return record;
}

AtomicAppendFile::AtomicAppendFile(std::string path)
    : path_(std::move(path))
{
    fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                 0644);
    if (fd_ < 0)
        throw std::runtime_error("cannot open " + path_ + ": " +
                                 std::strerror(errno));
}

AtomicAppendFile::~AtomicAppendFile()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
AtomicAppendFile::appendLine(const std::string &line)
{
    std::string buf = line;
    buf += '\n';
    // One write covers the whole line. Regular-file O_APPEND writes
    // land atomically at EOF; a genuinely short write (disk full,
    // signal) is an error — retrying would interleave with concurrent
    // appenders, exactly what this class exists to prevent.
    const ssize_t wrote = ::write(fd_, buf.data(), buf.size());
    if (wrote != static_cast<ssize_t>(buf.size()))
        throw std::runtime_error("short write to " + path_);
}

void
cutUnterminatedTail(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return;
    std::ostringstream bytes;
    bytes << in.rdbuf();
    const std::string text = bytes.str();
    const std::size_t nl = text.rfind('\n');
    const std::size_t keep = nl == std::string::npos ? 0 : nl + 1;
    if (keep == text.size())
        return;
    std::error_code error;
    std::filesystem::resize_file(path, keep, error);
    if (error)
        throw std::runtime_error("cannot cut the unterminated tail of " +
                                 path + ": " + error.message());
}

} // namespace tempo
