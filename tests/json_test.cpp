/**
 * @file
 * The one JSON value (src/stats/json.hh): numbers keep their token, so
 * what is built or parsed re-emits byte for byte in both layouts;
 * readers throw on a missing key or a wrong kind; and no input, however
 * malformed or deeply nested, does anything but parse or throw
 * std::runtime_error (a seeded mutation test over every document kind
 * the program reads back).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/checkpoint.hh"
#include "core/experiment.hh"
#include "fabric/coordinator.hh"
#include "fabric/snapshot.hh"
#include "stats/json.hh"

namespace tempo {
namespace {

using stats::Json;
using stats::parseJson;

TEST(Json, Uint64MaxRoundTrips)
{
    const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
    const Json v(max);
    EXPECT_EQ(v.dumpCompact(), "18446744073709551615");
    EXPECT_EQ(parseJson(v.dumpCompact()).asUint64(), max);
    // One past the maximum is no uint64.
    EXPECT_THROW(parseJson("18446744073709551616").asUint64(),
                 std::runtime_error);
}

TEST(Json, DoublesWriteShortestRoundTrip)
{
    for (const double d : {0.1, 1.0 / 3.0, 31486.399999999998, 1e-300,
                           -2.5, 1e21, 0.0}) {
        const std::string token = Json(d).dumpCompact();
        EXPECT_EQ(parseJson(token).asDouble(), d) << token;
        EXPECT_EQ(Json(parseJson(token).asDouble()).dumpCompact(), token);
    }
    EXPECT_EQ(Json(0.1).dumpCompact(), "0.1");
    EXPECT_EQ(Json(42.0).dumpCompact(), "42");
}

TEST(Json, NanAndInfinityWriteAsZero)
{
    EXPECT_EQ(Json(std::nan("")).dumpCompact(), "0");
    EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dumpCompact(),
              "0");
}

TEST(Json, EscapesRoundTrip)
{
    const std::string raw = "quote\" backslash\\ nl\n cr\r tab\t bell\a "
                            "nul" + std::string(1, '\0') + " utf8 \xc3\xa9";
    const Json v(raw);
    EXPECT_EQ(v.dumpCompact(),
              "\"quote\\\" backslash\\\\ nl\\n cr\\r tab\\t bell\\u0007 "
              "nul\\u0000 utf8 \xc3\xa9\"");
    EXPECT_EQ(parseJson(v.dumpCompact()).asString(), raw);
    EXPECT_EQ(parseJson("\"\\/\\b\\f\"").asString(), "/\b\f");
}

TEST(Json, EmptyContainersRoundTrip)
{
    Json doc = Json::object();
    doc.set("a", Json::array());
    doc.set("o", Json::object());
    doc.set("n", Json());
    doc.set("t", true);
    doc.set("f", false);
    EXPECT_EQ(doc.dumpCompact(),
              "{\"a\":[],\"o\":{},\"n\":null,\"t\":true,\"f\":false}");
    EXPECT_EQ(doc.dump(), "{\n  \"a\": [],\n  \"o\": {},\n  \"n\": null,\n"
                          "  \"t\": true,\n  \"f\": false\n}\n");
    EXPECT_EQ(parseJson(doc.dump()).dump(), doc.dump());
    EXPECT_EQ(parseJson(doc.dumpCompact()).dumpCompact(),
              doc.dumpCompact());
    EXPECT_EQ(Json::object().dump(), "{}\n");
}

TEST(Json, ParsedTokensReemitAsRead)
{
    // A token the writer would spell differently keeps its own bytes.
    const std::string text =
        "{\"a\":1.50,\"b\":-0,\"c\":1E+2,\"d\":007,\"e\":[1e-7,2.0]}";
    EXPECT_EQ(parseJson(text).dumpCompact(), text);
}

/** A finished mcf point with time-series sampling: the richest record
 * a shard holds. */
RunResult
sampledResult()
{
    obs::Config obs_cfg;
    obs_cfg.timeseriesWindow = 20000;
    obs::configure(obs_cfg);
    RunResult result =
        runWorkload(SystemConfig::skylakeScaled(), "mcf", 2000);
    obs::configure(obs::Config{});
    return result;
}

/** One of each document the program reads back: a shard record, a
 * manifest, a worker status file and a bench document. */
struct Documents {
    std::string journalLine;
    std::string manifest;
    std::string status;
    std::string bench;
};

const Documents &
documents()
{
    static const Documents docs = [] {
        Documents d;
        RunResult result = sampledResult();
        d.journalLine = encodeJournalLine(0x0123456789abcdefull, result);

        namespace fs = std::filesystem;
        const std::string dir = "json_test_manifest";
        fs::remove_all(dir);
        fs::create_directories(dir);
        const std::vector<std::uint64_t> digests{1, 0xfeed, 0xdeadbeef};
        fabric::writeManifest(dir, "sweep \"quoted\"", digests);
        std::ifstream in(fabric::manifestPath(dir, digests));
        std::ostringstream text;
        text << in.rdbuf();
        d.manifest = text.str();
        fs::remove_all(dir);

        fabric::WorkerTally tally;
        tally.worker = "w1";
        tally.sweep = "unit";
        tally.inFlight = {7, 9};
        tally.add(result, 0.25);
        d.status = tally.toJson().dump();

        RunResult failed;
        failed.status.code = RunStatus::Code::Failed;
        failed.status.error = "boom\n\"x\"";
        failed.status.digest = 0x77;
        const std::vector<stats::BenchPoint> points{
            toBenchPoint("mcf", {{"mc.tempo", "true"}}, result),
            toBenchPoint("xsbench", {}, failed)};
        d.bench = stats::benchJson("json_test", 2000, 42, points).dump();
        return d;
    }();
    return docs;
}

TEST(Json, ParseThenDumpReproducesPrettyDocuments)
{
    const Documents &d = documents();
    for (const std::string *text : {&d.manifest, &d.status, &d.bench}) {
        const Json doc = parseJson(*text);
        EXPECT_EQ(doc.dump(), *text);
    }
    EXPECT_NE(parseJson(d.bench).at("points").elements().at(0).find(
                  "timeseries"),
              nullptr);
}

TEST(Json, ParseThenDumpCompactReproducesRecords)
{
    const std::string &line = documents().journalLine;
    EXPECT_EQ(parseJson(line).dumpCompact(), line);
    const JournalRecord record = decodeJournalLine(line);
    EXPECT_EQ(encodeJournalLine(record.digest, record.result), line);
}

TEST(Json, ReadersThrowOnMissingKeysAndWrongKinds)
{
    const Json doc = parseJson(
        "{\"n\":12,\"neg\":-1,\"f\":1.5,\"s\":\"x\",\"a\":[1],\"b\":true}");
    EXPECT_EQ(doc.find("missing"), nullptr);
    EXPECT_THROW(doc.at("missing"), std::runtime_error);
    EXPECT_EQ(doc.at("a").find("n"), nullptr);
    EXPECT_THROW(doc.at("a").at("n"), std::runtime_error);
    EXPECT_THROW(doc.at("s").asUint64(), std::runtime_error);
    EXPECT_THROW(doc.at("s").asDouble(), std::runtime_error);
    EXPECT_THROW(doc.at("n").asString(), std::runtime_error);
    EXPECT_THROW(doc.at("b").asUint64(), std::runtime_error);
    EXPECT_THROW(doc.at("a").asDouble(), std::runtime_error);
    EXPECT_THROW(doc.at("neg").asUint64(), std::runtime_error);
    EXPECT_THROW(doc.at("f").asUint64(), std::runtime_error);
    EXPECT_EQ(doc.at("f").asDouble(), 1.5);
    EXPECT_EQ(doc.at("neg").asDouble(), -1.0);
    EXPECT_EQ(doc.at("n").asUint64(), 12u);
    EXPECT_EQ(doc.at("n").kind(), Json::Kind::Number);
    EXPECT_TRUE(doc.at("n").elements().empty());
    EXPECT_TRUE(doc.at("a").members().empty());
}

TEST(Json, NestingIsBoundedNotRecursedWithoutLimit)
{
    const auto nested = [](int depth) {
        return std::string(static_cast<std::size_t>(depth), '[')
            + std::string(static_cast<std::size_t>(depth), ']');
    };
    EXPECT_NO_THROW(parseJson(nested(stats::kJsonMaxDepth)));
    EXPECT_THROW(parseJson(nested(stats::kJsonMaxDepth + 1)),
                 std::runtime_error);
    EXPECT_THROW(parseJson(std::string(2000000, '[')), std::runtime_error);
    EXPECT_THROW(parseJson(std::string(2000000, '{')), std::runtime_error);
    EXPECT_THROW(decodeJournalLine(std::string(2000000, '[')),
                 std::runtime_error);
}

/** One seeded mutation of @p text: a byte flip, a truncation, a splice
 * of another piece of @p text, a deleted range, or a run of openers. */
std::string
mutate(const std::string &text, Rng &rng)
{
    static const std::string kBytes = "{}[]\",:0123456789.eE+-\\ntfu \x01\xff";
    std::string out = text;
    const auto pos = [&] { return rng.below(out.size() + 1); };
    switch (rng.below(6)) {
      case 0: { // flip one to four bytes
        const std::uint64_t flips = 1 + rng.below(4);
        for (std::uint64_t i = 0; i < flips && !out.empty(); ++i) {
            const std::uint64_t at = rng.below(out.size());
            out[at] = rng.chance(0.5)
                ? kBytes[rng.below(kBytes.size())]
                : static_cast<char>(rng.below(256));
        }
        break;
      }
      case 1: // truncate
        out.resize(pos());
        break;
      case 2: { // splice a piece of the document somewhere else
        const std::uint64_t from = rng.below(text.size() + 1);
        const std::uint64_t len = rng.below(text.size() - from + 1);
        out.insert(pos(), text.substr(from, len));
        break;
      }
      case 3: { // delete a range
        const std::uint64_t from = rng.below(out.size() + 1);
        out.erase(from, rng.below(out.size() - from + 1));
        break;
      }
      case 4: { // nest a little past the bound, or far past it
        const std::uint64_t depth =
            rng.chance(0.9) ? 50 + rng.below(40) : 100000;
        out.insert(pos(), depth, rng.chance(0.5) ? '[' : '{');
        break;
      }
      default: // a value nested to the bound, spliced into the document
        out.insert(pos(),
                   std::string(stats::kJsonMaxDepth - 1, '[') + "1"
                       + std::string(stats::kJsonMaxDepth - 1, ']'));
        break;
    }
    return out;
}

TEST(JsonMutation, EveryMutantParsesOrThrows)
{
    const Documents &d = documents();
    Rng rng(20261021);
    int parsed = 0, rejected = 0, decoded = 0;
    for (const std::string *text :
         {&d.journalLine, &d.manifest, &d.status, &d.bench}) {
        for (int i = 0; i < 1500; ++i) {
            const std::string mutant = mutate(*text, rng);
            try {
                const Json doc = parseJson(mutant);
                doc.dump();
                ++parsed;
            } catch (const std::runtime_error &) {
                ++rejected;
            }
            if (text != &d.journalLine)
                continue;
            try {
                decodeJournalLine(mutant);
                ++decoded;
            } catch (const std::runtime_error &) {
            }
        }
    }
    // Both outcomes happen: the mutations are neither all fatal nor all
    // harmless.
    EXPECT_GT(parsed, 100);
    EXPECT_GT(rejected, 1000);
    EXPECT_GT(decoded, 10);
}

} // namespace
} // namespace tempo
