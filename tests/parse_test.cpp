/**
 * @file
 * The strict number parsers behind every numeric flag and environment
 * variable: digits only for integers, finite decimals for reals, and an
 * error that names the input.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/parse.hh"

namespace tempo {
namespace {

/** @p parse throws std::invalid_argument whose message names "--x". */
template <typename Parse>
void
expectRejected(Parse parse, const std::string &value)
{
    try {
        (void)parse("--x", value);
        FAIL() << "accepted '" << value << "'";
    } catch (const std::invalid_argument &error) {
        EXPECT_NE(std::string(error.what()).find("--x"),
                  std::string::npos)
            << error.what();
    }
}

TEST(Parse, U64AcceptsDigitsOnly)
{
    EXPECT_EQ(parseU64("--x", "0"), 0u);
    EXPECT_EQ(parseU64("--x", "007"), 7u);
    EXPECT_EQ(parseU64("--x", "18446744073709551615"),
              18446744073709551615ull);
    for (const char *bad : {"-1", "+5", "12x", "", " 5", "5 ", "0x10",
                            "18446744073709551616"})
        expectRejected([](const std::string &n, const std::string &v) {
            return parseU64(n, v);
        }, bad);
}

TEST(Parse, U64HonoursItsMaximum)
{
    EXPECT_EQ(parseU64("--x", "10", 10), 10u);
    expectRejected([](const std::string &n, const std::string &v) {
        return parseU64(n, v, 10);
    }, "11");
}

TEST(Parse, UnsignedRejectsValuesAbove32Bits)
{
    EXPECT_EQ(parseUnsigned("--x", "4294967295"), 4294967295u);
    for (const char *bad : {"4294967296", "-1", "+5", "12x", ""})
        expectRejected(parseUnsigned, bad);
}

TEST(Parse, DoubleAcceptsFiniteDecimals)
{
    EXPECT_DOUBLE_EQ(parseDouble("--x", "2.5"), 2.5);
    EXPECT_DOUBLE_EQ(parseDouble("--x", "-1"), -1.0);
    EXPECT_DOUBLE_EQ(parseDouble("--x", "1e3"), 1000.0);
    EXPECT_DOUBLE_EQ(parseDouble("--x", ".5"), 0.5);
    for (const char *bad : {"+5", "12x", "", " 1", "1 ", "nan", "inf",
                            "0x10", "1e999", "-", "."})
        expectRejected(parseDouble, bad);
}

TEST(Parse, SecondsMustNotBeNegative)
{
    EXPECT_DOUBLE_EQ(parseSeconds("--x", "0"), 0.0);
    EXPECT_DOUBLE_EQ(parseSeconds("--x", "2.5"), 2.5);
    for (const char *bad : {"-1", "-0.5", "+5", "12x", ""})
        expectRejected(parseSeconds, bad);
}

TEST(Parse, EmptyEnvironmentValueReadsAsUnset)
{
    ::setenv("TEMPO_PARSE_TEST", "", 1);
    EXPECT_EQ(envValue("TEMPO_PARSE_TEST"), nullptr);
    ::setenv("TEMPO_PARSE_TEST", "3", 1);
    ASSERT_NE(envValue("TEMPO_PARSE_TEST"), nullptr);
    EXPECT_STREQ(envValue("TEMPO_PARSE_TEST"), "3");
    ::unsetenv("TEMPO_PARSE_TEST");
    EXPECT_EQ(envValue("TEMPO_PARSE_TEST"), nullptr);
}

} // namespace
} // namespace tempo
