/**
 * @file
 * The configuration key table and the INI files that set it. Every
 * knob a user can set is named once, by a dotted key such as
 * "mc.pt_row_hold": an INI file's `[mc] pt_row_hold = 10` line,
 * `tempo_sweep --key mc.pt_row_hold` and tempo_sim's config flags all
 * set knobs through the table, so each key parses, range-checks and
 * spells its values one way everywhere. An INI file captures an
 * experiment as reviewable text instead of a long command line:
 *
 *   # open rows and TEMPO
 *   [dram]
 *   row_policy = open
 *   [mc]
 *   tempo = true
 *
 * Unknown keys are an error (typos must not silently do nothing);
 * `tempo_sweep --help` lists every key and the values it accepts.
 */

#ifndef TEMPO_CLI_CONFIG_FILE_HH
#define TEMPO_CLI_CONFIG_FILE_HH

#include <span>
#include <string>
#include <string_view>

#include "core/config.hh"

namespace tempo::cli {

/** One settable knob. */
struct ConfigKey {
    const char *name; //!< "section.key": the INI file's [section] and key
    /** The accepted values, for --help: "true|false", "0..4294967295",
     * "0..1", "open|closed|adaptive", ... */
    std::string (*values)();
    /** Parse @p value, range-check it and assign it to @p cfg.
     * @throws std::invalid_argument naming @p key. */
    void (*set)(const char *key, SystemConfig &cfg, const std::string &value);
};

/** Every key, grouped by INI section. */
std::span<const ConfigKey> configKeys();

/** The key named @p name. @throws std::invalid_argument if none. */
const ConfigKey &configKey(std::string_view name);

/** Set key @p name of @p cfg to @p value.
 * @throws std::invalid_argument naming the key. */
void setConfigKey(SystemConfig &cfg, std::string_view name,
                  const std::string &value);

/**
 * The rules that span keys, each stated beside the constructor that
 * asserts it (cache, TLB, MMU and DRAM geometry, sub-rows, the
 * fragmentation level, the selected engines' tables). Run once all
 * keys are set, since a later key may fix what an earlier one set.
 * @throws std::invalid_argument naming the keys.
 */
void checkConfig(const SystemConfig &cfg);

/**
 * Apply @p ini_text (INI syntax, see file comment) on top of @p cfg,
 * then checkConfig() the result.
 * @throws std::invalid_argument naming the offending line or keys.
 */
void applyConfigText(const std::string &ini_text, SystemConfig &cfg);

/** Load @p path and apply it. @throws std::invalid_argument. */
void applyConfigFile(const std::string &path, SystemConfig &cfg);

} // namespace tempo::cli

#endif // TEMPO_CLI_CONFIG_FILE_HH
