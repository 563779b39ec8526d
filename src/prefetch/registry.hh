/**
 * @file
 * The prefetcher registry: maps engine names to constructors and
 * resolves a SystemConfig's engine list (prefetch.engines, see
 * PrefetchConfig in prefetcher.hh) into live Prefetcher instances,
 * built in list order.
 */

#ifndef TEMPO_PREFETCH_REGISTRY_HH
#define TEMPO_PREFETCH_REGISTRY_HH

#include <memory>
#include <string>
#include <vector>

#include "prefetch/prefetcher.hh"

namespace tempo {

struct SystemConfig;

/** Every engine name the registry can build, in registration order. */
const std::vector<std::string> &registeredPrefetcherNames();

bool isRegisteredPrefetcher(const std::string &name);

/**
 * Parse a CLI-style comma-separated engine list ("stride,tskid";
 * "none" or "" yields an empty list: no core prefetcher).
 * @throws std::invalid_argument on unknown or duplicate names.
 */
std::vector<std::string> parsePrefetcherList(const std::string &csv);

/**
 * Build the engines @p cfg selects, in dispatch order.
 * @throws std::invalid_argument on unknown or duplicate names.
 */
std::vector<std::unique_ptr<Prefetcher>>
buildPrefetchers(const SystemConfig &cfg);

} // namespace tempo

#endif // TEMPO_PREFETCH_REGISTRY_HH
