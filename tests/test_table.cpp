// Tests for the result-rendering substrate.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "util/env_config.h"
#include "util/table.h"

namespace ftnav {
namespace {

TEST(Table, RejectsEmptyHeaders) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, RejectsRowWidthMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({std::string("1")}), std::invalid_argument);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row(std::vector<std::string>{"x", "1"});
  t.add_row(std::vector<std::string>{"longer-name", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, NumericRowFormatting) {
  Table t({"a", "b"});
  t.add_row({1.23456, 2.0}, 2);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("1.23"), std::string::npos);
  EXPECT_NE(csv.find("2.00"), std::string::npos);
}

TEST(Table, CsvQuotesCommas) {
  Table t({"a"});
  t.add_row({std::string("x,y")});
  EXPECT_NE(t.to_csv().find("\"x,y\""), std::string::npos);
}

TEST(Table, CsvEscapesQuotes) {
  Table t({"a"});
  t.add_row({std::string("say \"hi\",ok")});
  EXPECT_NE(t.to_csv().find("\"say \"\"hi\"\",ok\""), std::string::npos);
}

TEST(Heatmap, RejectsEmptyAxes) {
  EXPECT_THROW(HeatmapGrid({}, {"c"}), std::invalid_argument);
  EXPECT_THROW(HeatmapGrid({"r"}, {}), std::invalid_argument);
}

TEST(Heatmap, SetGetAndMissingCells) {
  HeatmapGrid grid({"r0", "r1"}, {"c0", "c1", "c2"});
  grid.set(1, 2, 42.5);
  EXPECT_TRUE(grid.has(1, 2));
  EXPECT_FALSE(grid.has(0, 0));
  EXPECT_DOUBLE_EQ(grid.at(1, 2), 42.5);
  EXPECT_THROW(grid.at(0, 0), std::out_of_range);
  EXPECT_THROW(grid.set(2, 0, 1.0), std::out_of_range);
}

TEST(Heatmap, RenderShowsValuesAndDashes) {
  HeatmapGrid grid({"r0"}, {"c0", "c1"});
  grid.set(0, 0, 97.0);
  const std::string out = grid.render(0);
  EXPECT_NE(out.find("97"), std::string::npos);
  EXPECT_NE(out.find("-"), std::string::npos);
}

TEST(Heatmap, CsvRoundTrip) {
  HeatmapGrid grid({"ber=0.1"}, {"e100", "e200"});
  grid.set(0, 0, 1.5);
  grid.set(0, 1, 2.5);
  const std::string csv = grid.to_csv(1);
  EXPECT_NE(csv.find("ber=0.1,1.5,2.5"), std::string::npos);
}

TEST(Heatmap, MergeCombinesDisjointCells) {
  HeatmapGrid a({"r0", "r1"}, {"c0", "c1"});
  a.set(0, 0, 1.0);
  HeatmapGrid b({"r0", "r1"}, {"c0", "c1"});
  b.set(1, 1, 4.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 4.0);
  EXPECT_FALSE(a.has(0, 1));
}

TEST(Heatmap, MergeRejectsAxisMismatch) {
  HeatmapGrid a({"r0"}, {"c0"});
  EXPECT_THROW(a.merge(HeatmapGrid({"other"}, {"c0"})),
               std::invalid_argument);
}

TEST(FormatDouble, Precision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-1.0, 0), "-1");
}

TEST(EnvConfig, DefaultsWhenUnset) {
  unsetenv("FTNAV_SEED");
  unsetenv("FTNAV_REPEATS");
  unsetenv("FTNAV_FULL");
  const BenchConfig config = bench_config_from_env();
  EXPECT_EQ(config.seed, 42u);
  EXPECT_EQ(config.repeats, 0);
  EXPECT_FALSE(config.full_scale);
  EXPECT_EQ(config.resolve_repeats(5, 100), 5);
}

TEST(EnvConfig, ReadsOverrides) {
  setenv("FTNAV_SEED", "7", 1);
  setenv("FTNAV_REPEATS", "33", 1);
  setenv("FTNAV_FULL", "1", 1);
  const BenchConfig config = bench_config_from_env();
  EXPECT_EQ(config.seed, 7u);
  EXPECT_EQ(config.resolve_repeats(5, 100), 33);
  EXPECT_TRUE(config.full_scale);
  unsetenv("FTNAV_SEED");
  unsetenv("FTNAV_REPEATS");
  unsetenv("FTNAV_FULL");
}

TEST(EnvConfig, MalformedBenchKnobsExitTwo) {
  // Partial or non-integer values used to parse as a prefix or fall
  // back to the default ("4x" ran 4 threads, "true" the fast scale),
  // and a missing JSON directory silently dropped every artifact.
  const struct {
    const char* name;
    const char* value;
  } cases[] = {{"FTNAV_FULL", "true"},   {"FTNAV_THREADS", "4x"},
               {"FTNAV_THREADS", "abc"}, {"FTNAV_THREADS", "-3"},
               {"FTNAV_REPEATS", "3.5"}, {"FTNAV_REPEATS", "0"},
               {"FTNAV_SEED", "42s"},    {"FTNAV_SEED", "-1"},
               {"FTNAV_JSON_DIR", "/nonexistent/dir"}};
  for (const auto& c : cases) {
    setenv(c.name, c.value, 1);
    EXPECT_EXIT(bench_config_from_env(), ::testing::ExitedWithCode(2),
                std::string("error: ") + c.name)
        << c.name << "=" << c.value;
    unsetenv(c.name);
  }
}

TEST(EnvConfig, FullScaleDefaultRepeats) {
  BenchConfig config;
  config.full_scale = true;
  EXPECT_EQ(config.resolve_repeats(5, 100), 100);
}

TEST(EnvConfig, EnvIntRejectsGarbage) {
  unsetenv("FTNAV_TEST_INT");
  EXPECT_EQ(env_int("FTNAV_TEST_INT", 9, 0, 100), 9);
  setenv("FTNAV_TEST_INT", "17", 1);
  EXPECT_EQ(env_int("FTNAV_TEST_INT", 9, 0, 100), 17);
  for (const char* value : {"abc", "17x", "1.5", "101", "-1"}) {
    setenv("FTNAV_TEST_INT", value, 1);
    EXPECT_THROW(env_int("FTNAV_TEST_INT", 9, 0, 100), std::invalid_argument)
        << value;
  }
  unsetenv("FTNAV_TEST_INT");
}

TEST(EnvConfig, DescribeMentionsSeed) {
  BenchConfig config;
  config.seed = 123;
  EXPECT_NE(describe(config).find("123"), std::string::npos);
}

}  // namespace
}  // namespace ftnav
