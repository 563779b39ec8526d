#include "stats/json.hh"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/log.hh"

namespace tempo::stats {

Json
Json::object()
{
    Json j;
    j.kind_ = Kind::Object;
    return j;
}

Json
Json::array()
{
    Json j;
    j.kind_ = Kind::Array;
    return j;
}

Json &
Json::set(const std::string &key, Json value)
{
    TEMPO_ASSERT(kind_ == Kind::Object, "Json::set on non-object");
    members_.emplace_back(key, std::move(value));
    return *this;
}

Json &
Json::push(Json value)
{
    TEMPO_ASSERT(kind_ == Kind::Array, "Json::push on non-array");
    elements_.push_back(std::move(value));
    return *this;
}

namespace {

/** JSON string escaping (quotes not included). */
std::string
jsonEscape(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size());
    for (const char c : raw) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Shortest round-trip double representation (JSON has no NaN/Inf;
 * those become 0 — they never appear in valid results). */
std::string
formatDouble(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[32];
    const auto [ptr, ec] =
        std::to_chars(buf, buf + sizeof(buf), v);
    TEMPO_ASSERT(ec == std::errc(), "double format failed");
    std::string out(buf, ptr);
    // Bare integers ("42") are valid JSON numbers but ambiguous about
    // intent; keep them as emitted — parsers do not care.
    return out;
}

} // namespace

Json::Json(std::uint64_t v) : kind_(Kind::Number), text_(std::to_string(v))
{
}

Json::Json(double v) : kind_(Kind::Number), text_(formatDouble(v)) {}

const Json *
Json::find(const std::string &key) const
{
    for (const auto &[k, v] : members_)
        if (k == key)
            return &v;
    return nullptr;
}

const Json &
Json::at(const std::string &key) const
{
    const Json *v = find(key);
    if (!v)
        throw std::runtime_error("JSON: missing key \"" + key + "\"");
    return *v;
}

namespace {

template <typename T>
T
parseNumber(const std::string &token, const char *what)
{
    T out{};
    const auto [p, ec] =
        std::from_chars(token.data(), token.data() + token.size(), out);
    if (ec != std::errc() || p != token.data() + token.size())
        throw std::runtime_error(std::string("JSON: not a ") + what +
                                 ": " + token);
    return out;
}

} // namespace

std::uint64_t
Json::asUint64() const
{
    if (kind_ != Kind::Number)
        throw std::runtime_error("JSON: not a number");
    return parseNumber<std::uint64_t>(text_, "uint64");
}

double
Json::asDouble() const
{
    if (kind_ != Kind::Number)
        throw std::runtime_error("JSON: not a number");
    return parseNumber<double>(text_, "double");
}

const std::string &
Json::asString() const
{
    if (kind_ != Kind::String)
        throw std::runtime_error("JSON: not a string");
    return text_;
}

void
Json::write(std::ostream &os, int indent, int depth) const
{
    switch (kind_) {
      case Kind::Null: os << "null"; return;
      case Kind::Bool: os << (bool_ ? "true" : "false"); return;
      case Kind::Number: os << text_; return;
      case Kind::String: os << '"' << jsonEscape(text_) << '"'; return;
      case Kind::Array:
      case Kind::Object: break;
    }
    const bool array = kind_ == Kind::Array;
    const std::size_t size = array ? elements_.size() : members_.size();
    const auto newline = [&](int level) {
        if (indent)
            os << '\n'
               << std::string(static_cast<std::size_t>(indent * level),
                              ' ');
    };
    os << (array ? '[' : '{');
    for (std::size_t i = 0; i < size; ++i) {
        if (i)
            os << ',';
        newline(depth + 1);
        if (!array)
            os << '"' << jsonEscape(members_[i].first)
               << (indent ? "\": " : "\":");
        (array ? elements_[i] : members_[i].second)
            .write(os, indent, depth + 1);
    }
    if (size)
        newline(depth);
    os << (array ? ']' : '}');
}

void
Json::write(std::ostream &os) const
{
    write(os, 2, 0);
    os << '\n';
}

std::string
Json::dump() const
{
    std::ostringstream os;
    write(os);
    return os.str();
}

std::string
Json::dumpCompact() const
{
    std::ostringstream os;
    write(os, 0, 0);
    return os.str();
}

/** Recursive-descent parser for the subset Json emits, bounded at
 * kJsonMaxDepth nested containers so hostile input cannot exhaust the
 * stack. */
struct JsonParser {
    const std::string &text;
    std::size_t pos = 0;

    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw std::runtime_error("JSON parse error at offset " +
                                 std::to_string(pos) + ": " + what);
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    char
    peek()
    {
        if (pos >= text.size())
            fail("unexpected end of input");
        return text[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos;
    }

    bool
    consumeWord(const char *word)
    {
        const std::size_t n = std::char_traits<char>::length(word);
        if (text.compare(pos, n, word) != 0)
            return false;
        pos += n;
        return true;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos >= text.size())
                fail("unterminated string");
            const char c = text[pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                fail("unterminated escape");
            const char e = text[pos++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                if (pos + 4 > text.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                const auto [p, ec] = std::from_chars(
                    text.data() + pos, text.data() + pos + 4, code, 16);
                if (ec != std::errc() || p != text.data() + pos + 4)
                    fail("bad \\u escape");
                pos += 4;
                // The writer only escapes control characters < 0x20;
                // larger code points pass through raw, so a one-byte
                // decode covers everything we emit.
                if (code > 0xff)
                    fail("unsupported \\u escape beyond U+00FF");
                out += static_cast<char>(code);
                break;
              }
              default:
                fail("unknown escape");
            }
        }
    }

    Json
    parseValue(int depth)
    {
        skipWs();
        const char c = peek();
        if ((c == '{' || c == '[') && depth >= kJsonMaxDepth)
            fail("nesting deeper than " + std::to_string(kJsonMaxDepth));
        if (c == '{') {
            ++pos;
            Json v = Json::object();
            skipWs();
            if (peek() == '}') {
                ++pos;
                return v;
            }
            while (true) {
                skipWs();
                std::string key = parseString();
                skipWs();
                expect(':');
                v.members_.emplace_back(std::move(key),
                                        parseValue(depth + 1));
                skipWs();
                if (peek() == ',') {
                    ++pos;
                    continue;
                }
                expect('}');
                return v;
            }
        }
        if (c == '[') {
            ++pos;
            Json v = Json::array();
            skipWs();
            if (peek() == ']') {
                ++pos;
                return v;
            }
            while (true) {
                v.elements_.push_back(parseValue(depth + 1));
                skipWs();
                if (peek() == ',') {
                    ++pos;
                    continue;
                }
                expect(']');
                return v;
            }
        }
        if (c == '"')
            return Json(parseString());
        if (consumeWord("true"))
            return Json(true);
        if (consumeWord("false"))
            return Json(false);
        if (consumeWord("null"))
            return Json();
        if (c == '-' || (c >= '0' && c <= '9')) {
            const std::size_t start = pos;
            if (c == '-')
                ++pos;
            auto digits = [&] {
                const std::size_t first = pos;
                while (pos < text.size() && text[pos] >= '0' &&
                       text[pos] <= '9')
                    ++pos;
                if (pos == first)
                    fail("expected digits");
            };
            digits();
            if (pos < text.size() && text[pos] == '.') {
                ++pos;
                digits();
            }
            if (pos < text.size() &&
                (text[pos] == 'e' || text[pos] == 'E')) {
                ++pos;
                if (pos < text.size() &&
                    (text[pos] == '+' || text[pos] == '-'))
                    ++pos;
                digits();
            }
            Json v;
            v.kind_ = Json::Kind::Number;
            v.text_ = text.substr(start, pos - start);
            return v;
        }
        fail("unexpected character");
    }
};

Json
parseJson(const std::string &text)
{
    JsonParser p{text};
    Json v = p.parseValue(0);
    p.skipWs();
    if (p.pos != text.size())
        p.fail("trailing garbage");
    return v;
}

std::string
digestHex(std::uint64_t digest)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
}

std::uint64_t
parseDigestHex(const std::string &text)
{
    std::uint64_t out = 0;
    const auto [p, ec] =
        std::from_chars(text.data(), text.data() + text.size(), out, 16);
    if (ec != std::errc() || p != text.data() + text.size() ||
        text.empty())
        throw std::runtime_error("bad digest " + text);
    return out;
}

namespace {

Json
configObject(const BenchPoint &point)
{
    Json config = Json::object();
    for (const auto &[key, value] : point.config)
        config.set(key, value);
    return config;
}

} // namespace

Json
benchJson(const std::string &bench, std::uint64_t refs,
          std::uint64_t seed, const std::vector<BenchPoint> &points)
{
    Json doc = Json::object();
    doc.set("schema", "tempo-bench-1");
    doc.set("bench", bench);
    doc.set("refs", refs);
    doc.set("seed", seed);

    // Experiment counters: a pure function of the points, so resumed
    // and uninterrupted runs emit identical bytes.
    std::uint64_t num_ok = 0, num_failed = 0, num_timed_out = 0;
    std::uint64_t num_retries = 0;
    for (const BenchPoint &point : points) {
        if (point.status == "ok")
            ++num_ok;
        else if (point.status == "timed_out")
            ++num_timed_out;
        else
            ++num_failed;
        num_retries += point.attempts > 0 ? point.attempts - 1 : 0;
    }
    Json experiment = Json::object();
    experiment.set("points", std::uint64_t(points.size()));
    experiment.set("ok", num_ok);
    experiment.set("failed", num_failed);
    experiment.set("timed_out", num_timed_out);
    experiment.set("retries", num_retries);
    doc.set("experiment", std::move(experiment));

    Json point_array = Json::array();
    for (const BenchPoint &point : points) {
        Json p = Json::object();
        p.set("workload", point.workload);
        p.set("config", configObject(point));
        p.set("status", point.status);
        p.set("runtime_cycles", point.runtimeCycles);
        Json energy = Json::object();
        for (const auto &[key, value] : point.energy)
            energy.set(key, value);
        p.set("energy", std::move(energy));
        Json counters = Json::object();
        for (const auto &[key, value] : point.counters)
            counters.set(key, value);
        p.set("counters", std::move(counters));
        if (point.timeseriesWindow > 0) {
            Json timeseries = Json::object();
            timeseries.set("window_cycles", point.timeseriesWindow);
            for (const auto &[column, values] : point.timeseries) {
                Json samples = Json::array();
                for (double v : values)
                    samples.push(v);
                timeseries.set(column, std::move(samples));
            }
            p.set("timeseries", std::move(timeseries));
        }
        point_array.push(std::move(p));
    }
    doc.set("points", std::move(point_array));

    Json failures = Json::array();
    for (std::size_t i = 0; i < points.size(); ++i) {
        const BenchPoint &point = points[i];
        if (point.status == "ok")
            continue;
        Json f = Json::object();
        f.set("point", std::uint64_t(i));
        f.set("workload", point.workload);
        f.set("config", configObject(point));
        f.set("status", point.status);
        f.set("error", point.error);
        f.set("attempts", std::uint64_t(point.attempts));
        f.set("seed", point.seedUsed);
        f.set("digest", digestHex(point.digest));
        failures.push(std::move(f));
    }
    doc.set("failures", std::move(failures));
    return doc;
}

void
writeBenchJson(const std::string &path, const std::string &bench,
               std::uint64_t refs, std::uint64_t seed,
               const std::vector<BenchPoint> &points)
{
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot write " + path);
    benchJson(bench, refs, seed, points).write(os);
    if (!os)
        throw std::runtime_error("short write to " + path);
}

} // namespace tempo::stats
