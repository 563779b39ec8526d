#include "cli/config_file.hh"

#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "cache/set_assoc.hh"
#include "common/parse.hh"
#include "prefetch/registry.hh"
#include "vm/assoc_array.hh"

namespace tempo::cli {
namespace {

[[noreturn]] void
bad(int line_no, const std::string &message)
{
    throw std::invalid_argument("config line "
                                + std::to_string(line_no) + ": "
                                + message);
}

std::string
trim(const std::string &s)
{
    const auto begin = s.find_first_not_of(" \t\r");
    if (begin == std::string::npos)
        return {};
    const auto end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
}

bool
parseBool(int line_no, const std::string &value)
{
    if (value == "true" || value == "1")
        return true;
    if (value == "false" || value == "0")
        return false;
    bad(line_no, "expected a boolean, got '" + value + "'");
}

/** An INI integer that converts to the integer field it is assigned
 * to, rejecting a value that field cannot hold instead of truncating
 * it. */
struct Integer {
    int lineNo;
    const std::string &key;
    std::uint64_t value;

    template <typename T>
        requires std::is_integral_v<T>
    operator T() const
    {
        constexpr auto max = std::numeric_limits<T>::max();
        if (value > static_cast<std::uint64_t>(max))
            bad(lineNo, key + " must be at most " + std::to_string(max)
                            + ", got " + std::to_string(value));
        return static_cast<T>(value);
    }
};

/** The cache, TLB and MMU geometry rules of the constructors that
 * will build them. Checked once the whole text is applied, since a
 * later line may fix what an earlier one set. */
void
checkGeometry(const SystemConfig &cfg)
{
    auto check = [](const char *keys, const std::string &error) {
        if (!error.empty())
            throw std::invalid_argument("config " + std::string(keys)
                                        + ": " + error);
    };
    const CacheHierarchyConfig &caches = cfg.caches;
    check("[caches] l1_bytes/l1_assoc",
          SetAssocCache::geometryError(caches.l1.sizeBytes,
                                       caches.l1.assoc));
    check("[caches] l2_bytes/l2_assoc",
          SetAssocCache::geometryError(caches.l2.sizeBytes,
                                       caches.l2.assoc));
    check("[caches] llc_bytes/llc_assoc",
          SetAssocCache::geometryError(caches.llc.sizeBytes,
                                       caches.llc.assoc));
    const TlbConfig &tlb = cfg.tlb;
    check("[tlb] l1_entries_4k",
          AssocArray<>::geometryError(tlb.l1Entries4K, tlb.l1Assoc4K));
    check("[tlb] l1_entries_2m",
          AssocArray<>::geometryError(tlb.l1Entries2M, tlb.l1Assoc2M));
    check("[tlb] l1_entries_1g",
          AssocArray<>::geometryError(tlb.l1Entries1G, tlb.l1Assoc1G));
    check("[tlb] l2_entries/l2_assoc",
          AssocArray<>::geometryError(tlb.l2Entries, tlb.l2Assoc));
    check("[mmu] entries_per_level/assoc",
          AssocArray<>::geometryError(cfg.mmu.entriesPerLevel,
                                      cfg.mmu.assoc));
}

void
applyKey(int line_no, SystemConfig &cfg, const std::string &section,
         const std::string &key, const std::string &value)
{
    auto u = [&] {
        try {
            return Integer{line_no, key, parseU64(key, value)};
        } catch (const std::invalid_argument &error) {
            bad(line_no, error.what());
        }
    };
    // DRAM geometry feeds the address map's bit slicing, so each field
    // must be a power of two that fits its unsigned field.
    auto pow2 = [&] {
        const unsigned v = u();
        if (!isPow2(v))
            bad(line_no, key + " must be a power of 2, got '" + value
                             + "'");
        return v;
    };
    auto f = [&] {
        try {
            return parseDouble(key, value);
        } catch (const std::invalid_argument &error) {
            bad(line_no, error.what());
        }
    };
    auto b = [&] { return parseBool(line_no, value); };

    if (section == "caches") {
        if (key == "l1_bytes") cfg.caches.l1.sizeBytes = u();
        else if (key == "l1_assoc") cfg.caches.l1.assoc = u();
        else if (key == "l1_latency") cfg.caches.l1.latency = u();
        else if (key == "l2_bytes") cfg.caches.l2.sizeBytes = u();
        else if (key == "l2_assoc") cfg.caches.l2.assoc = u();
        else if (key == "l2_latency") cfg.caches.l2.latency = u();
        else if (key == "llc_bytes") cfg.caches.llc.sizeBytes = u();
        else if (key == "llc_assoc") cfg.caches.llc.assoc = u();
        else if (key == "llc_latency") cfg.caches.llc.latency = u();
        else bad(line_no, "unknown [caches] key '" + key + "'");
    } else if (section == "tlb") {
        if (key == "l1_entries_4k") cfg.tlb.l1Entries4K = u();
        else if (key == "l1_entries_2m") cfg.tlb.l1Entries2M = u();
        else if (key == "l1_entries_1g") cfg.tlb.l1Entries1G = u();
        else if (key == "l2_entries") cfg.tlb.l2Entries = u();
        else if (key == "l2_assoc") cfg.tlb.l2Assoc = u();
        else if (key == "l1_latency") cfg.tlb.l1Latency = u();
        else if (key == "l2_latency") cfg.tlb.l2Latency = u();
        else bad(line_no, "unknown [tlb] key '" + key + "'");
    } else if (section == "mmu") {
        if (key == "entries_per_level") cfg.mmu.entriesPerLevel = u();
        else if (key == "assoc") cfg.mmu.assoc = u();
        else bad(line_no, "unknown [mmu] key '" + key + "'");
    } else if (section == "dram") {
        if (key == "channels") cfg.dram.channels = pow2();
        else if (key == "ranks") cfg.dram.ranksPerChannel = pow2();
        else if (key == "banks") cfg.dram.banksPerRank = pow2();
        else if (key == "row_bytes") {
            cfg.dram.rowBufferBytes = pow2();
            if (cfg.dram.rowBufferBytes < kLineBytes)
                bad(line_no, "row_bytes must be at least one line ("
                                 + std::to_string(kLineBytes) + ")");
        }
        else if (key == "trcd") cfg.dram.tRCD = u();
        else if (key == "trp") cfg.dram.tRP = u();
        else if (key == "tcas") cfg.dram.tCAS = u();
        else if (key == "tburst") cfg.dram.tBurst = u();
        else if (key == "tras") cfg.dram.tRAS = u();
        else if (key == "refresh") cfg.dram.refreshEnabled = b();
        else if (key == "trefi") cfg.dram.tREFI = u();
        else if (key == "trfc") cfg.dram.tRFC = u();
        else if (key == "row_policy") {
            if (value == "open") cfg.dram.rowPolicy = RowPolicyKind::Open;
            else if (value == "closed")
                cfg.dram.rowPolicy = RowPolicyKind::Closed;
            else if (value == "adaptive")
                cfg.dram.rowPolicy = RowPolicyKind::Adaptive;
            else bad(line_no, "unknown row_policy '" + value + "'");
        } else if (key == "subrow_alloc") {
            if (value == "none") cfg.dram.subRowAlloc = SubRowAlloc::None;
            else if (value == "foa") cfg.dram.subRowAlloc = SubRowAlloc::FOA;
            else if (value == "poa") cfg.dram.subRowAlloc = SubRowAlloc::POA;
            else bad(line_no, "unknown subrow_alloc '" + value + "'");
        } else if (key == "subrow_count") {
            cfg.dram.subRowCount = u();
        } else if (key == "subrows_for_prefetch") {
            cfg.dram.subRowsForPrefetch = u();
        } else {
            bad(line_no, "unknown [dram] key '" + key + "'");
        }
    } else if (section == "mc") {
        if (key == "tempo") cfg.mc.tempoEnabled = b();
        else if (key == "llc_fill") cfg.mc.tempoLlcFill = b();
        else if (key == "pt_row_hold") cfg.mc.tempoPtRowHold = u();
        else if (key == "grace_period") cfg.mc.tempoGracePeriod = u();
        else if (key == "grouping") cfg.mc.tempoGrouping = b();
        else if (key == "engine_delay") cfg.mc.prefetchEngineDelay = u();
        else if (key == "drop_depth") cfg.mc.prefetchDropDepth = u();
        else if (key == "sched") {
            if (value == "frfcfs") cfg.mc.sched = SchedKind::FrFcfs;
            else if (value == "bliss") cfg.mc.sched = SchedKind::Bliss;
            else bad(line_no, "unknown sched '" + value + "'");
        } else if (key == "bliss_threshold") {
            cfg.mc.scheduler.blissThreshold = u();
        } else if (key == "bliss_prefetch_weight") {
            cfg.mc.scheduler.blissPrefetchWeight = u();
        } else {
            bad(line_no, "unknown [mc] key '" + key + "'");
        }
    } else if (section == "vm") {
        if (key == "page_policy") {
            if (value == "4k") cfg.vm.policy = PagePolicy::Base4K;
            else if (value == "thp") cfg.vm.policy = PagePolicy::Thp;
            else if (value == "hugetlbfs2m")
                cfg.vm.policy = PagePolicy::Hugetlbfs2M;
            else if (value == "hugetlbfs1g")
                cfg.vm.policy = PagePolicy::Hugetlbfs1G;
            else bad(line_no, "unknown page_policy '" + value + "'");
        } else if (key == "frag") {
            cfg.os.fragLevel = f();
        } else if (key == "thp_eligible") {
            cfg.vm.thpEligibleFrac = f();
        } else if (key == "translator_slots") {
            cfg.translator.memoSlots = static_cast<unsigned>(u());
            if (!isPow2(cfg.translator.memoSlots))
                bad(line_no, "translator_slots must be a power of 2");
        } else {
            bad(line_no, "unknown [vm] key '" + key + "'");
        }
    } else if (section == "imp") {
        if (key == "enabled") cfg.imp.enabled = b();
        else if (key == "coverage") cfg.imp.coverage = f();
        else if (key == "accuracy") cfg.imp.accuracy = f();
        else if (key == "distance") cfg.imp.prefetchDistance = u();
        else if (key == "table_entries")
            cfg.imp.prefetchTableEntries = u();
        else bad(line_no, "unknown [imp] key '" + key + "'");
    } else if (section == "prefetch") {
        if (key == "engines") {
            try {
                cfg.prefetch.engines = parsePrefetcherList(value);
            } catch (const std::invalid_argument &e) {
                bad(line_no, e.what());
            }
            if (cfg.prefetch.engines.empty()) {
                // "engines = none": explicitly no core prefetchers,
                // overriding any imp/stride enable flags.
                cfg.imp.enabled = false;
                cfg.stride.enabled = false;
            }
        } else {
            bad(line_no, "unknown [prefetch] key '" + key + "'");
        }
    } else if (section == "stride") {
        if (key == "enabled") cfg.stride.enabled = b();
        else if (key == "table_entries") cfg.stride.tableEntries = u();
        else if (key == "confidence_threshold")
            cfg.stride.confidenceThreshold = u();
        else if (key == "degree") cfg.stride.degree = u();
        else if (key == "distance") cfg.stride.distance = u();
        else bad(line_no, "unknown [stride] key '" + key + "'");
    } else if (section == "tskid") {
        if (key == "table_entries") cfg.tskid.tableEntries = u();
        else if (key == "confidence_threshold")
            cfg.tskid.confidenceThreshold = u();
        else if (key == "degree") cfg.tskid.degree = u();
        else if (key == "distance") cfg.tskid.distance = u();
        else if (key == "lead_cycles") cfg.tskid.leadCycles = u();
        else if (key == "max_pending") cfg.tskid.maxPending = u();
        else bad(line_no, "unknown [tskid] key '" + key + "'");
    } else if (section == "misb") {
        if (key == "pair_entries") cfg.misb.pairEntries = u();
        else if (key == "metadata_cache_entries")
            cfg.misb.metadataCacheEntries = u();
        else if (key == "degree") cfg.misb.degree = u();
        else if (key == "train_threshold") cfg.misb.trainThreshold = u();
        else if (key == "max_metadata_inflight")
            cfg.misb.maxMetadataInflight = u();
        else bad(line_no, "unknown [misb] key '" + key + "'");
    } else if (section == "temporal") {
        if (key == "table_entries") cfg.temporal.tableEntries = u();
        else if (key == "confidence_threshold")
            cfg.temporal.confidenceThreshold = u();
        else if (key == "degree") cfg.temporal.degree = u();
        else if (key == "train_threshold")
            cfg.temporal.trainThreshold = u();
        else bad(line_no, "unknown [temporal] key '" + key + "'");
    } else if (section == "core") {
        if (key == "mlp_window") {
            cfg.mlpWindow = u();
            cfg.useWorkloadMlpHint = false;
        } else if (key == "issue_gap") {
            cfg.issueGap = u();
        } else if (key == "tlb_fill_latency") {
            cfg.tlbFillLatency = u();
        } else if (key == "seed") {
            cfg.withSeed(u());
        } else {
            bad(line_no, "unknown [core] key '" + key + "'");
        }
    } else {
        bad(line_no, "unknown section [" + section + "]");
    }
}

} // namespace

void
applyConfigText(const std::string &ini_text, SystemConfig &cfg)
{
    std::istringstream stream(ini_text);
    std::string raw;
    std::string section;
    int line_no = 0;
    while (std::getline(stream, raw)) {
        ++line_no;
        std::string line = raw;
        const auto comment = line.find_first_of("#;");
        if (comment != std::string::npos)
            line.resize(comment);
        line = trim(line);
        if (line.empty())
            continue;
        if (line.front() == '[') {
            if (line.back() != ']')
                bad(line_no, "malformed section header");
            section = trim(line.substr(1, line.size() - 2));
            continue;
        }
        const auto eq = line.find('=');
        if (eq == std::string::npos)
            bad(line_no, "expected 'key = value'");
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (key.empty() || value.empty())
            bad(line_no, "expected 'key = value'");
        if (section.empty())
            bad(line_no, "key before any [section]");
        applyKey(line_no, cfg, section, key, value);
    }
    checkGeometry(cfg);
}

void
applyConfigFile(const std::string &path, SystemConfig &cfg)
{
    std::ifstream file(path);
    if (!file)
        throw std::invalid_argument("cannot open config file: " + path);
    std::ostringstream content;
    content << file.rdbuf();
    applyConfigText(content.str(), cfg);
}

} // namespace tempo::cli
