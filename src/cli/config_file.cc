#include "cli/config_file.hh"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "cache/set_assoc.hh"
#include "common/parse.hh"
#include "dram/address_map.hh"
#include "dram/bank.hh"
#include "prefetch/registry.hh"
#include "vm/assoc_array.hh"

namespace tempo::cli {
namespace {

using Names = std::span<const char *const>;

constexpr Names spellings(auto) { return {}; }
constexpr Names spellings(RowPolicyKind) { return kRowPolicyNames; }
constexpr Names spellings(SubRowAlloc) { return kSubRowAllocNames; }
constexpr Names spellings(SchedKind) { return kSchedNames; }
constexpr Names spellings(PagePolicy) { return kPagePolicyNames; }

std::string
join(const auto &names, const char *separator)
{
    std::string out;
    for (const auto &name : names)
        out += (out.empty() ? "" : separator) + std::string(name);
    return out;
}

/** The values a field of type T takes, as ConfigKey::values. */
template <typename T>
std::string
valuesOf()
{
    if constexpr (std::is_same_v<T, bool>)
        return "true|false";
    else if constexpr (std::is_enum_v<T>)
        return join(spellings(T{}), "|");
    else if constexpr (std::is_integral_v<T>)
        return "0.." + std::to_string(std::numeric_limits<T>::max());
    else
        return "0..1";
}

[[noreturn]] void
reject(const char *key, const std::string &expected,
       const std::string &value)
{
    throw std::invalid_argument(std::string(key) + " must be " + expected
                                + ", got '" + value + "'");
}

bool
parseBool(const char *key, const std::string &value)
{
    if (value == "true" || value == "1")
        return true;
    if (value != "false" && value != "0")
        reject(key, "true or false", value);
    return false;
}

/** The field type a path lambda `[](auto &c) -> auto & {...}` names. */
template <typename Path>
using FieldType = std::remove_cvref_t<decltype(Path{}(
    std::declval<SystemConfig &>()))>;

/** ConfigKey::set for the plain field a path lambda names: a bool, an
 * enum spelled by spellings(), an unsigned or a fraction in [0,1]. */
template <typename Path>
void
setField(const char *key, SystemConfig &cfg, const std::string &value)
{
    using T = FieldType<Path>;
    static_assert(std::is_unsigned_v<T> || std::is_enum_v<T>
                  || std::is_same_v<T, double>);
    T &field = Path{}(cfg);
    if constexpr (std::is_same_v<T, bool>) {
        field = parseBool(key, value);
    } else if constexpr (std::is_enum_v<T>) {
        const Names names = spellings(T{});
        const auto it = std::find(names.begin(), names.end(), value);
        if (it == names.end())
            reject(key, "one of " + valuesOf<T>(), value);
        field = static_cast<T>(it - names.begin());
    } else if constexpr (std::is_integral_v<T>) {
        field = static_cast<T>(
            parseU64(key, value, std::numeric_limits<T>::max()));
    } else {
        const double parsed = parseDouble(key, value);
        if (parsed < 0.0 || parsed > 1.0)
            reject(key, "in [0,1]", value);
        field = parsed;
    }
}

template <typename Path>
constexpr ConfigKey
field(const char *name, Path)
{
    return {name, &valuesOf<FieldType<Path>>, &setField<Path>};
}

// The row of the plain field cfg.<path>.
#define KEY(name, path) field(name, [](auto &c) -> auto & { return c.path; })

/** "<engine>.enabled" is sugar for prefetch.engines: true appends the
 * engine when absent, false removes it. */
void
setEngineEnabled(const char *key, SystemConfig &cfg,
                 const std::string &value)
{
    const bool on = parseBool(key, value);
    const std::string_view name = key;
    const std::string_view engine = name.substr(0, name.find('.'));
    auto &engines = cfg.prefetch.engines;
    const auto it = std::find(engines.begin(), engines.end(), engine);
    if (on && it == engines.end())
        engines.emplace_back(engine);
    else if (!on && it != engines.end())
        engines.erase(it);
}

constexpr ConfigKey kKeys[] = {
    KEY("caches.l1_bytes", caches.l1.sizeBytes),
    KEY("caches.l1_assoc", caches.l1.assoc),
    KEY("caches.l1_latency", caches.l1.latency),
    KEY("caches.l2_bytes", caches.l2.sizeBytes),
    KEY("caches.l2_assoc", caches.l2.assoc),
    KEY("caches.l2_latency", caches.l2.latency),
    KEY("caches.llc_bytes", caches.llc.sizeBytes),
    KEY("caches.llc_assoc", caches.llc.assoc),
    KEY("caches.llc_latency", caches.llc.latency),

    KEY("tlb.l1_entries_4k", tlb.l1Entries4K),
    KEY("tlb.l1_entries_2m", tlb.l1Entries2M),
    KEY("tlb.l1_entries_1g", tlb.l1Entries1G),
    KEY("tlb.l2_entries", tlb.l2Entries),
    KEY("tlb.l2_assoc", tlb.l2Assoc),
    KEY("tlb.l1_latency", tlb.l1Latency),
    KEY("tlb.l2_latency", tlb.l2Latency),

    KEY("mmu.entries_per_level", mmu.entriesPerLevel),
    KEY("mmu.assoc", mmu.assoc),

    KEY("dram.channels", dram.channels),
    KEY("dram.ranks", dram.ranksPerChannel),
    KEY("dram.banks", dram.banksPerRank),
    KEY("dram.row_bytes", dram.rowBufferBytes),
    KEY("dram.trcd", dram.tRCD),
    KEY("dram.trp", dram.tRP),
    KEY("dram.tcas", dram.tCAS),
    KEY("dram.tburst", dram.tBurst),
    KEY("dram.tras", dram.tRAS),
    KEY("dram.refresh", dram.refreshEnabled),
    KEY("dram.trefi", dram.tREFI),
    KEY("dram.trfc", dram.tRFC),
    KEY("dram.row_policy", dram.rowPolicy),
    KEY("dram.subrow_alloc", dram.subRowAlloc),
    KEY("dram.subrow_count", dram.subRowCount),
    KEY("dram.subrows_for_prefetch", dram.subRowsForPrefetch),

    KEY("mc.tempo", mc.tempoEnabled),
    KEY("mc.llc_fill", mc.tempoLlcFill),
    KEY("mc.pt_row_hold", mc.tempoPtRowHold),
    KEY("mc.grace_period", mc.tempoGracePeriod),
    KEY("mc.grouping", mc.tempoGrouping),
    KEY("mc.engine_delay", mc.prefetchEngineDelay),
    KEY("mc.drop_depth", mc.prefetchDropDepth),
    KEY("mc.sched", mc.sched),
    KEY("mc.bliss_threshold", mc.scheduler.blissThreshold),
    KEY("mc.bliss_prefetch_weight", mc.scheduler.blissPrefetchWeight),

    KEY("vm.page_policy", vm.policy),
    // OsMemory::configError() holds the range; checkConfig() applies it.
    {"vm.frag", [] { return std::string("0..1, 1 excluded"); },
     [](const char *key, SystemConfig &cfg, const std::string &value) {
         cfg.os.fragLevel = parseDouble(key, value);
     }},
    KEY("vm.thp_eligible", vm.thpEligibleFrac),
    KEY("vm.translator_slots", translator.memoSlots),

    {"prefetch.engines",
     [] {
         return "none or a list of "
             + join(registeredPrefetcherNames(), ",");
     },
     [](const char *key, SystemConfig &cfg, const std::string &value) {
         try {
             cfg.prefetch.engines = parsePrefetcherList(value);
         } catch (const std::invalid_argument &error) {
             throw std::invalid_argument(std::string(key) + ": "
                                         + error.what());
         }
     }},

    {"imp.enabled", &valuesOf<bool>, &setEngineEnabled},
    KEY("imp.coverage", imp.coverage),
    KEY("imp.accuracy", imp.accuracy),
    KEY("imp.distance", imp.prefetchDistance),
    KEY("imp.table_entries", imp.prefetchTableEntries),

    {"stride.enabled", &valuesOf<bool>, &setEngineEnabled},
    KEY("stride.table_entries", stride.tableEntries),
    KEY("stride.confidence_threshold", stride.confidenceThreshold),
    KEY("stride.degree", stride.degree),
    KEY("stride.distance", stride.distance),

    KEY("tskid.table_entries", tskid.tableEntries),
    KEY("tskid.confidence_threshold", tskid.confidenceThreshold),
    KEY("tskid.degree", tskid.degree),
    KEY("tskid.distance", tskid.distance),
    KEY("tskid.lead_cycles", tskid.leadCycles),
    KEY("tskid.max_pending", tskid.maxPending),

    KEY("misb.pair_entries", misb.pairEntries),
    KEY("misb.metadata_cache_entries", misb.metadataCacheEntries),
    KEY("misb.degree", misb.degree),
    KEY("misb.train_threshold", misb.trainThreshold),
    KEY("misb.max_metadata_inflight", misb.maxMetadataInflight),

    KEY("temporal.table_entries", temporal.tableEntries),
    KEY("temporal.confidence_threshold", temporal.confidenceThreshold),
    KEY("temporal.degree", temporal.degree),
    KEY("temporal.train_threshold", temporal.trainThreshold),

    // An explicit window overrides each workload's own MLP hint.
    {"core.mlp_window", &valuesOf<unsigned>,
     [](const char *key, SystemConfig &cfg, const std::string &value) {
         cfg.mlpWindow = parseUnsigned(key, value);
         cfg.useWorkloadMlpHint = false;
     }},
    KEY("core.issue_gap", issueGap),
    KEY("core.tlb_fill_latency", tlbFillLatency),
    // The seed also reseeds the OS and address-space models.
    {"core.seed", &valuesOf<std::uint64_t>,
     [](const char *key, SystemConfig &cfg, const std::string &value) {
         cfg.withSeed(parseU64(key, value));
     }},
};

#undef KEY

[[noreturn]] void
bad(int line_no, const std::string &message)
{
    throw std::invalid_argument("config line "
                                + std::to_string(line_no) + ": "
                                + message);
}

} // namespace

std::span<const ConfigKey>
configKeys()
{
    return kKeys;
}

const ConfigKey &
configKey(std::string_view name)
{
    for (const ConfigKey &key : kKeys) {
        if (name == key.name)
            return key;
    }
    throw std::invalid_argument("unknown config key '" + std::string(name)
                                + "'");
}

void
setConfigKey(SystemConfig &cfg, std::string_view name,
             const std::string &value)
{
    const ConfigKey &key = configKey(name);
    key.set(key.name, cfg, value);
}

void
checkConfig(const SystemConfig &cfg)
{
    auto check = [](const char *keys, const std::string &error) {
        if (!error.empty())
            throw std::invalid_argument(std::string(keys) + ": " + error);
    };
    const CacheHierarchyConfig &caches = cfg.caches;
    check("caches.l1_bytes/l1_assoc",
          SetAssocCache::geometryError(caches.l1.sizeBytes,
                                       caches.l1.assoc));
    check("caches.l2_bytes/l2_assoc",
          SetAssocCache::geometryError(caches.l2.sizeBytes,
                                       caches.l2.assoc));
    check("caches.llc_bytes/llc_assoc",
          SetAssocCache::geometryError(caches.llc.sizeBytes,
                                       caches.llc.assoc));
    const TlbConfig &tlb = cfg.tlb;
    check("tlb.l1_entries_4k",
          AssocArray<>::geometryError(tlb.l1Entries4K, tlb.l1Assoc4K));
    check("tlb.l1_entries_2m",
          AssocArray<>::geometryError(tlb.l1Entries2M, tlb.l1Assoc2M));
    check("tlb.l1_entries_1g",
          AssocArray<>::geometryError(tlb.l1Entries1G, tlb.l1Assoc1G));
    check("tlb.l2_entries/l2_assoc",
          AssocArray<>::geometryError(tlb.l2Entries, tlb.l2Assoc));
    check("mmu.entries_per_level/assoc",
          AssocArray<>::geometryError(cfg.mmu.entriesPerLevel,
                                      cfg.mmu.assoc));
    check("dram.channels/ranks/banks/row_bytes",
          AddressMap::geometryError(cfg.dram));
    check("dram.refresh/trefi/subrow_alloc/subrow_count/"
          "subrows_for_prefetch",
          Bank::configError(cfg.dram));
    check("vm.frag", OsMemory::configError(cfg.os));
    check("vm.translator_slots", Translator::configError(cfg.translator));
    // An engine's table must work only when the engine is built.
    auto selected = [&](std::string_view engine) {
        return std::ranges::count(cfg.prefetch.engines, engine) > 0;
    };
    if (selected("imp"))
        check("imp.table_entries", ImpPrefetcher::configError(cfg.imp));
    if (selected("stride"))
        check("stride.table_entries",
              StridePrefetcher::configError(cfg.stride));
    if (selected("tskid"))
        check("tskid.table_entries", TskidPrefetcher::configError(cfg.tskid));
    if (selected("misb"))
        check("misb.pair_entries/misb.metadata_cache_entries",
              MisbPrefetcher::configError(cfg.misb));
    if (selected("temporal"))
        check("temporal.table_entries",
              TemporalPrefetcher::configError(cfg.temporal));
}

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
        try {
            setConfigKey(cfg, section + "." + key, value);
        } catch (const std::invalid_argument &error) {
            bad(line_no, error.what());
        }
    }
    checkConfig(cfg);
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
