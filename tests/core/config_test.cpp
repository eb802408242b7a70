#include "common/config.h"

#include <gtest/gtest.h>

namespace dcm {
namespace {

TEST(ConfigTest, ParsesSectionsAndKeys) {
  const Config config = Config::parse(
      "[hardware]\n"
      "web = 2\n"
      "app=3\n"
      "\n"
      "[run]\n"
      "duration = 42.5\n");
  EXPECT_EQ(config.get_int("hardware", "web", 0), 2);
  EXPECT_EQ(config.get_int("hardware", "app", 0), 3);
  EXPECT_DOUBLE_EQ(config.get_double("run", "duration", 0.0), 42.5);
}

TEST(ConfigTest, CommentsAndWhitespace) {
  const Config config = Config::parse(
      "# full line comment\n"
      "[s]  \n"
      "key = value   ; trailing comment\n"
      "other = x # another\n");
  EXPECT_EQ(config.get_string("s", "key"), "value");
  EXPECT_EQ(config.get_string("s", "other"), "x");
}

TEST(ConfigTest, FallbacksForMissingKeys) {
  const Config config = Config::parse("[a]\nx = 1\n");
  EXPECT_EQ(config.get_int("a", "missing", 9), 9);
  EXPECT_EQ(config.get_string("nope", "x", "d"), "d");
  EXPECT_TRUE(config.get_bool("a", "missing", true));
  EXPECT_FALSE(config.has("a", "missing"));
  EXPECT_TRUE(config.has("a", "x"));
}

TEST(ConfigTest, BooleanSpellings) {
  const Config config = Config::parse(
      "[b]\nt1=true\nt2=Yes\nt3=ON\nt4=1\nf1=false\nf2=no\nf3=Off\nf4=0\n");
  for (const char* key : {"t1", "t2", "t3", "t4"}) {
    EXPECT_TRUE(config.get_bool("b", key, false)) << key;
  }
  for (const char* key : {"f1", "f2", "f3", "f4"}) {
    EXPECT_FALSE(config.get_bool("b", key, true)) << key;
  }
}

TEST(ConfigTest, MalformedInputsThrow) {
  EXPECT_THROW(Config::parse("[unclosed\nx=1\n"), std::runtime_error);
  EXPECT_THROW(Config::parse("[s]\nno_equals_here\n"), std::runtime_error);
  EXPECT_THROW(Config::parse("[s]\n= value\n"), std::runtime_error);
  const Config config = Config::parse("[s]\nx = notanumber\n");
  EXPECT_THROW(config.get_int("s", "x", 0), std::runtime_error);
  EXPECT_THROW(config.get_double("s", "x", 0.0), std::runtime_error);
  EXPECT_THROW(config.get_bool("s", "x", false), std::runtime_error);
}

TEST(ConfigTest, SetOverrides) {
  Config config = Config::parse("[s]\nx = 1\n");
  config.set("s", "x", "2");
  config.set("new", "y", "3");
  EXPECT_EQ(config.get_int("s", "x", 0), 2);
  EXPECT_EQ(config.get_int("new", "y", 0), 3);
}

TEST(ConfigTest, ToTextRoundTrips) {
  const Config config = Config::parse(
      "top = 1\n"
      "[b]\nz = 2\na = hello world\n"
      "[a]\nk = 0.5\n");
  const std::string text = config.to_text();
  // parse → emit → parse is identity...
  EXPECT_TRUE(Config::parse(text) == config);
  // ...and emit is a fixed point (canonical form).
  EXPECT_EQ(Config::parse(text).to_text(), text);
  // Sections and keys are emitted sorted, sectionless keys first.
  EXPECT_EQ(text,
            "top = 1\n"
            "\n[a]\nk = 0.5\n"
            "\n[b]\na = hello world\nz = 2\n");
}

}  // namespace
}  // namespace dcm
