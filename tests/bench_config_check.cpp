/**
 * @file
 * bench_config_check FILE...: checks that every "config" pair of every
 * point of the given tempo-bench-1 files names a config key
 * (cli::configKeys()) and holds a value that key accepts, so a point's
 * config says how to rebuild it. Prints each pair that does not and
 * exits 1; exits 2 when a file cannot be read or parsed.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "cli/config_file.hh"
#include "stats/json.hh"

int
main(int argc, char **argv)
{
    using namespace tempo;
    if (argc < 2) {
        std::fprintf(stderr, "usage: bench_config_check FILE...\n");
        return 2;
    }
    int status = 0;
    for (int f = 1; f < argc; ++f) {
        std::ifstream in(argv[f]);
        std::ostringstream text;
        text << in.rdbuf();
        try {
            const stats::Json doc = stats::parseJson(text.str());
            const auto &points = doc.at("points").elements();
            for (std::size_t p = 0; p < points.size(); ++p) {
                for (const auto &[key, value] :
                     points[p].at("config").members()) {
                    SystemConfig cfg = SystemConfig::skylakeScaled();
                    try {
                        cli::setConfigKey(cfg, key, value.asString());
                    } catch (const std::invalid_argument &error) {
                        std::fprintf(stderr, "%s: point %zu: %s\n", argv[f],
                                     p, error.what());
                        status = 1;
                    }
                }
            }
        } catch (const std::runtime_error &error) {
            std::fprintf(stderr, "%s: %s\n", argv[f], error.what());
            return 2;
        }
    }
    return status;
}
