/**
 * @file
 * Table-wide checks of the config key table: every row sets the same
 * machine through an INI file and through tempo_sweep's single-key
 * path, and every tempo_sim config flag sets what its key sets.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/config_file.hh"
#include "cli/options.hh"

namespace tempo::cli {
namespace {

/** An INI text setting the dotted key @p name to @p value. */
std::string
iniFor(const std::string &name, const std::string &value)
{
    const std::size_t dot = name.find('.');
    return "[" + name.substr(0, dot) + "]\n" + name.substr(dot + 1)
        + " = " + value + "\n";
}

/** What tempo_sweep does with one --key value. */
SystemConfig
sweepPath(const std::string &name, const std::string &value)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    setConfigKey(cfg, name, value);
    checkConfig(cfg);
    return cfg;
}

SystemConfig
iniPath(const std::string &name, const std::string &value)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    applyConfigText(iniFor(name, value), cfg);
    return cfg;
}

/** Values of @p key's kind, read from what --help lists for it: the
 * engine list, a range "0..MAX" (a fraction when MAX is 1) or the
 * choices "a|b|c". */
struct KindValues {
    std::vector<std::string> good; //!< candidates to set
    std::vector<std::string> bad;  //!< values the key must reject
};

KindValues
kindValues(const ConfigKey &key)
{
    const std::string text = key.values();
    if (text.starts_with("none or"))
        return {{"stride,imp"}, {"bogus", "stride,stride"}};
    if (text.starts_with("0..")) {
        const std::string max =
            text.substr(3, text.find_first_not_of("0123456789", 3) - 3);
        if (max == "1")
            return {{"0.5", "0.25"}, {"1.5", "-0.5"}};
        KindValues out{{}, {"-1", max + "0"}};
        for (std::uint64_t v = 1; v <= (1u << 20); v *= 2)
            out.good.push_back(std::to_string(v));
        return out;
    }
    KindValues out{{}, {"bogus"}};
    for (std::size_t begin = 0; begin <= text.size();) {
        const std::size_t bar = std::min(text.find('|', begin), text.size());
        out.good.push_back(text.substr(begin, bar - begin));
        begin = bar + 1;
    }
    if (text == "true|false")
        out.bad = {"maybe", "2"};
    return out;
}

/** A value of @p key that loads and changes the machine: the first
 * candidate of its kind that does (powers of two suit every geometry
 * rule), or the first candidate for a key outside the digest. */
std::string
otherValue(const ConfigKey &key)
{
    const std::vector<std::string> candidates = kindValues(key).good;
    const std::uint64_t base = SystemConfig::skylakeScaled().digest();
    for (const std::string &value : candidates) {
        try {
            if (iniPath(key.name, value).digest() != base)
                return value;
        } catch (const std::invalid_argument &) {
        }
    }
    return candidates.front();
}

void
expectRejected(const std::string &name, const std::string &value)
{
    for (const bool ini : {false, true}) {
        try {
            if (ini)
                (void)iniPath(name, value);
            else
                (void)sweepPath(name, value);
            ADD_FAILURE() << name << " accepted '" << value << "'";
        } catch (const std::invalid_argument &error) {
            EXPECT_NE(std::string(error.what()).find(name),
                      std::string::npos)
                << error.what();
        }
    }
}

TEST(ConfigKeys, EveryKeyRoundTrips)
{
    const std::uint64_t base = SystemConfig::skylakeScaled().digest();
    for (const ConfigKey &key : configKeys()) {
        SCOPED_TRACE(key.name);
        const std::string value = otherValue(key);
        const SystemConfig swept = sweepPath(key.name, value);
        const SystemConfig loaded = iniPath(key.name, value);
        EXPECT_EQ(swept.digest(), loaded.digest());
        // The memo size is stats-neutral and stays out of the digest;
        // every other knob must change it.
        if (std::string(key.name) != "vm.translator_slots") {
            EXPECT_NE(swept.digest(), base);
        }
        for (const std::string &bad : kindValues(key).bad)
            expectRejected(key.name, bad);
    }
}

TEST(ConfigKeys, UnknownKeysAreErrors)
{
    SystemConfig cfg = SystemConfig::skylakeScaled();
    EXPECT_THROW(setConfigKey(cfg, "dram.chanels", "4"),
                 std::invalid_argument);
    EXPECT_THROW(setConfigKey(cfg, "frag", "0.5"), std::invalid_argument);
    EXPECT_THROW(setConfigKey(cfg, "", "1"), std::invalid_argument);
}

TEST(ConfigKeys, CliFlagsMatchTheirKeys)
{
    struct Alias {
        std::vector<std::string> args;
        const char *key;
        const char *value;
    };
    const Alias aliases[] = {
        {{"--tempo"}, "mc.tempo", "true"},
        {{"--imp"}, "imp.enabled", "true"},
        {{"--prefetcher", "stride,misb"}, "prefetch.engines",
         "stride,misb"},
        {{"--sched", "bliss"}, "mc.sched", "bliss"},
        {{"--row-policy", "closed"}, "dram.row_policy", "closed"},
        {{"--page-policy", "hugetlbfs1g"}, "vm.page_policy",
         "hugetlbfs1g"},
        {{"--frag", "0.25"}, "vm.frag", "0.25"},
        {{"--subrow", "poa"}, "dram.subrow_alloc", "poa"},
        {{"--subrow-dedicated", "3"}, "dram.subrows_for_prefetch", "3"},
        {{"--seed", "7"}, "core.seed", "7"},
    };
    const SystemConfig defaults = toConfig(parse({}));
    for (const Alias &alias : aliases) {
        SCOPED_TRACE(alias.args.front());
        SystemConfig ini = defaults;
        applyConfigText(iniFor(alias.key, alias.value), ini);
        const SystemConfig flag = toConfig(parse(alias.args));
        EXPECT_EQ(flag.digest(), ini.digest());
        EXPECT_NE(flag.digest(), defaults.digest());
    }
}

} // namespace
} // namespace tempo::cli
