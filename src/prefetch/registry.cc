#include "prefetch/registry.hh"

#include <algorithm>
#include <stdexcept>

#include "common/parse.hh"
#include "core/config.hh"
#include "prefetch/imp.hh"
#include "prefetch/misb.hh"
#include "prefetch/stride.hh"
#include "prefetch/temporal.hh"
#include "prefetch/tskid.hh"

namespace tempo {

namespace {

std::unique_ptr<Prefetcher>
buildOne(const std::string &name, const SystemConfig &cfg)
{
    if (name == "stride")
        return std::make_unique<StridePrefetcher>(cfg.stride);
    if (name == "imp")
        return std::make_unique<ImpPrefetcher>(cfg.imp);
    if (name == "tskid")
        return std::make_unique<TskidPrefetcher>(cfg.tskid);
    if (name == "misb")
        return std::make_unique<MisbPrefetcher>(cfg.misb);
    if (name == "temporal")
        return std::make_unique<TemporalPrefetcher>(cfg.temporal);
    throw std::invalid_argument("unknown prefetcher '" + name
                                + "' (known: stride, imp, tskid, misb, "
                                  "temporal)");
}

} // namespace

const std::vector<std::string> &
registeredPrefetcherNames()
{
    static const std::vector<std::string> names = {
        "stride", "imp", "tskid", "misb", "temporal",
    };
    return names;
}

bool
isRegisteredPrefetcher(const std::string &name)
{
    const auto &names = registeredPrefetcherNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

std::vector<std::string>
parsePrefetcherList(const std::string &csv)
{
    std::vector<std::string> engines;
    if (csv.empty() || csv == "none")
        return engines;
    for (const std::string &name : splitCommas(csv)) {
        if (!isRegisteredPrefetcher(name))
            throw std::invalid_argument(
                "unknown prefetcher '" + name
                + "' (known: stride, imp, tskid, misb, temporal)");
        if (std::ranges::count(engines, name))
            throw std::invalid_argument("duplicate prefetcher '" + name
                                        + "'");
        engines.push_back(name);
    }
    return engines;
}

std::vector<std::unique_ptr<Prefetcher>>
buildPrefetchers(const SystemConfig &cfg)
{
    std::vector<std::unique_ptr<Prefetcher>> engines;
    for (const std::string &name : cfg.prefetch.engines) {
        for (const auto &built : engines) {
            if (built->name() == name)
                throw std::invalid_argument("duplicate prefetcher '" + name
                                            + "'");
        }
        engines.push_back(buildOne(name, cfg));
    }
    return engines;
}

} // namespace tempo
