/**
 * @file
 * Unit tests for the shared string helpers of common/parse.hh
 * (formerly a tool-local copy in tempo_sweep that accepted empty
 * values).
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/parse.hh"

namespace tempo::cli {
namespace {

TEST(Trim, StripsAsciiWhitespace)
{
    EXPECT_EQ(trim("  a b  "), "a b");
    EXPECT_EQ(trim("\tx\n"), "x");
    EXPECT_EQ(trim("noop"), "noop");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   \t\r\n"), "");
}

TEST(SplitCommas, SplitsSimpleLists)
{
    EXPECT_EQ(splitCommas("a,b,c"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(splitCommas("single"),
              (std::vector<std::string>{"single"}));
    EXPECT_EQ(splitCommas("0,0.25,0.5"),
              (std::vector<std::string>{"0", "0.25", "0.5"}));
}

TEST(SplitCommas, TrimsWhitespaceAroundValues)
{
    EXPECT_EQ(splitCommas(" a , b ,c "),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(splitCommas("open,\tclosed , adaptive"),
              (std::vector<std::string>{"open", "closed", "adaptive"}));
}

TEST(SplitCommas, RejectsEmptyValues)
{
    EXPECT_THROW(splitCommas(""), std::invalid_argument);
    EXPECT_THROW(splitCommas(","), std::invalid_argument);
    EXPECT_THROW(splitCommas("a,,b"), std::invalid_argument);
    EXPECT_THROW(splitCommas("a,b,"), std::invalid_argument);
    EXPECT_THROW(splitCommas(",a"), std::invalid_argument);
    EXPECT_THROW(splitCommas("a, ,b"), std::invalid_argument);
    EXPECT_THROW(splitCommas("   "), std::invalid_argument);
}

} // namespace
} // namespace tempo::cli
