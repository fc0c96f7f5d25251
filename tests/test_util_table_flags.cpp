#include <gtest/gtest.h>

#include <stdexcept>

#include "util/flags.hpp"
#include "util/table.hpp"

namespace drs::util {
namespace {

TEST(FormatDouble, TrimsTrailingZeros) {
  EXPECT_EQ(format_double(0.99), "0.99");
  EXPECT_EQ(format_double(1200.0), "1200");
  EXPECT_EQ(format_double(0.123456789, 4), "0.1235");
  EXPECT_EQ(format_double(-2.5), "-2.5");
  EXPECT_EQ(format_double(0.0), "0");
}

TEST(Table, TextRenderingAligns) {
  Table t({"N", "P"});
  t.add(18, 0.99);
  t.add(2, 1.0);
  const std::string text = t.to_text();
  EXPECT_NE(text.find(" N"), std::string::npos);
  EXPECT_NE(text.find("0.99"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.row(0)[0], "18");
}

TEST(Table, CsvEscapesSpecials) {
  Table t({"name", "value"});
  t.add_row({"a,b", "say \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, MixedCellTypes) {
  Table t({"a", "b", "c"});
  t.add("x", 42u, 1.5);
  EXPECT_EQ(t.row(0), (std::vector<std::string>{"x", "42", "1.5"}));
}

std::optional<Flags> parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return Flags::parse(static_cast<int>(argv.size()), argv.data(),
                      {{"nodes", "node count"},
                       {"p", "probability"},
                       {"fast", "boolean switch"},
                       {"name", "label"}});
}

TEST(Flags, SpaceAndEqualsForms) {
  auto flags = parse({"--nodes", "12", "--p=0.5"});
  ASSERT_TRUE(flags.has_value());
  EXPECT_EQ(flags->get_int("nodes", 0), 12);
  EXPECT_DOUBLE_EQ(flags->get_double("p", 0.0), 0.5);
}

TEST(Flags, BooleanBareFlag) {
  auto flags = parse({"--fast"});
  ASSERT_TRUE(flags.has_value());
  EXPECT_TRUE(flags->get_bool("fast"));
  EXPECT_FALSE(flags->get_bool("missing"));
  EXPECT_TRUE(flags->get_bool("missing", true));
}

TEST(Flags, DefaultsWhenAbsent) {
  auto flags = parse({});
  ASSERT_TRUE(flags.has_value());
  EXPECT_EQ(flags->get_int("nodes", 8), 8);
  EXPECT_EQ(flags->get_string("name", "dflt"), "dflt");
  EXPECT_FALSE(flags->has("nodes"));
}

TEST(Flags, UnknownFlagRejected) {
  EXPECT_FALSE(parse({"--bogus", "1"}).has_value());
}

TEST(Flags, PositionalRejected) {
  EXPECT_FALSE(parse({"stray"}).has_value());
}

TEST(Flags, HelpIsAccepted) {
  auto flags = parse({"--help"});
  ASSERT_TRUE(flags.has_value());
  EXPECT_TRUE(flags->help_requested());
}

/// The message get_int/get_double/get_bool throw for `--flag value`, or ""
/// when the value reads cleanly.
template <class Get>
std::string rejection(const char* flag, const char* value, Get get) {
  auto flags = parse({flag, value});
  if (!flags.has_value()) return "parse failed";
  try {
    get(*flags);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(Flags, IntegersMustBeWholeAndInRange) {
  const auto get = [](const Flags& f) { return f.get_int("nodes", 0); };
  EXPECT_EQ(rejection("--nodes", "-12", get), "");
  EXPECT_EQ(parse({"--nodes", "-12"})->get_int("nodes", 0), -12);
  // A trailing word, no digits at all, a fraction, padding, int64 overflow.
  for (const char* bad : {"2x", "abc", "", "1.5", " 7", "9223372036854775808"}) {
    const std::string message = rejection("--nodes", bad, get);
    EXPECT_NE(message.find("--nodes"), std::string::npos)
        << "'" << bad << "' -> '" << message << "'";
  }
}

TEST(Flags, DoublesMustBeWholeAndInRange) {
  const auto get = [](const Flags& f) { return f.get_double("p", 0.0); };
  EXPECT_EQ(rejection("--p", "2.5e-3", get), "");
  EXPECT_DOUBLE_EQ(parse({"--p", "2.5e-3"})->get_double("p", 0.0), 2.5e-3);
  for (const char* bad : {"0.5x", "abc", "", "1e999"}) {
    const std::string message = rejection("--p", bad, get);
    EXPECT_NE(message.find("--p"), std::string::npos)
        << "'" << bad << "' -> '" << message << "'";
  }
}

TEST(Flags, BooleansMustBeAKnownWord) {
  EXPECT_FALSE(parse({"--fast=no"})->get_bool("fast", true));
  EXPECT_FALSE(parse({"--fast", "0"})->get_bool("fast", true));
  EXPECT_TRUE(parse({"--fast=yes"})->get_bool("fast"));
  const std::string message = rejection(
      "--fast", "maybe", [](const Flags& f) { return f.get_bool("fast"); });
  EXPECT_NE(message.find("--fast"), std::string::npos) << message;
}

}  // namespace
}  // namespace drs::util
