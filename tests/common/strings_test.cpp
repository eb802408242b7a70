#include "common/strings.h"

#include <gtest/gtest.h>

namespace dcm {
namespace {

TEST(StringsTest, SplitBasic) {
  const auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto parts = split("a,,c,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitSingleField) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringsTest, TrimStripsWhitespace) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("\t\nx\r "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("solid"), "solid");
}

TEST(StringsTest, ParseDoubleValid) {
  EXPECT_DOUBLE_EQ(parse_double("3.25").value(), 3.25);
  EXPECT_DOUBLE_EQ(parse_double(" -1e3 ").value(), -1000.0);
  EXPECT_DOUBLE_EQ(parse_double("0").value(), 0.0);
}

TEST(StringsTest, ParseDoubleRejectsJunk) {
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("abc").has_value());
  EXPECT_FALSE(parse_double("1.5x").has_value());
}

TEST(StringsTest, ParseIntValid) {
  EXPECT_EQ(parse_int("42").value(), 42);
  EXPECT_EQ(parse_int(" -7 ").value(), -7);
}

TEST(StringsTest, ParseIntRejectsJunk) {
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("4.2").has_value());
  EXPECT_FALSE(parse_int("x4").has_value());
}

TEST(StringsTest, ParseIntRejectsOutOfRange) {
  EXPECT_EQ(parse_int("9223372036854775807").value(), INT64_MAX);
  EXPECT_EQ(parse_int("-9223372036854775808").value(), INT64_MIN);
  // strtoll saturates these; they must not parse as the saturated value.
  EXPECT_FALSE(parse_int("9223372036854775808").has_value());
  EXPECT_FALSE(parse_int("-9223372036854775809").has_value());
  EXPECT_FALSE(parse_int("99999999999999999999").has_value());
}

TEST(StringsTest, ParseUintCoversTheFullRangeAndNoSign) {
  EXPECT_EQ(parse_uint(" 42 ").value(), 42u);
  EXPECT_EQ(parse_uint("18446744073709551615").value(), UINT64_MAX);
  EXPECT_FALSE(parse_uint("18446744073709551616").has_value());
  EXPECT_FALSE(parse_uint("-1").has_value());
  EXPECT_FALSE(parse_uint("").has_value());
  EXPECT_FALSE(parse_uint("1x").has_value());
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(starts_with("tomcat-vm1", "tomcat"));
  EXPECT_FALSE(starts_with("tom", "tomcat"));
  EXPECT_TRUE(starts_with("anything", ""));
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(str_format("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(str_format("%.2f", 1.5), "1.50");
  EXPECT_EQ(str_format("empty"), "empty");
}

}  // namespace
}  // namespace dcm
