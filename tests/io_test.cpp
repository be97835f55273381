// Tests for src/io: CSV quoting/roundtrip, the table printer, and dataset
// save/load with ground truth.

#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "io/csv.h"
#include "io/dataset_io.h"
#include "io/table_printer.h"
#include "synth/world_generator.h"

namespace mlp {
namespace io {
namespace {

// --------------------------------------------------------------------- csv

TEST(CsvTest, ParsePlainFields) {
  auto fields = ParseCsvLine("a,b,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
}

TEST(CsvTest, ParseEmptyFields) {
  auto fields = ParseCsvLine(",,");
  ASSERT_EQ(fields.size(), 3u);
  for (const auto& f : fields) EXPECT_TRUE(f.empty());
}

TEST(CsvTest, ParseQuotedFieldWithComma) {
  auto fields = ParseCsvLine("\"Los Angeles, CA\",x");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "Los Angeles, CA");
  EXPECT_EQ(fields[1], "x");
}

TEST(CsvTest, ParseEscapedQuotes) {
  auto fields = ParseCsvLine("\"say \"\"hi\"\"\",y");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "say \"hi\"");
}

TEST(CsvTest, FormatQuotesWhenNeeded) {
  EXPECT_EQ(FormatCsvLine({"a", "b"}), "a,b");
  EXPECT_EQ(FormatCsvLine({"Los Angeles, CA"}), "\"Los Angeles, CA\"");
  EXPECT_EQ(FormatCsvLine({"say \"hi\""}), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(FormatCsvLine({" padded "}), "\" padded \"");
}

class CsvRoundtripTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CsvRoundtripTest, FormatThenParseIsIdentity) {
  std::vector<std::string> row = {GetParam(), "second"};
  auto parsed = ParseCsvLine(FormatCsvLine(row));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0], GetParam());
  EXPECT_EQ(parsed[1], "second");
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CsvRoundtripTest,
    ::testing::Values("plain", "with, comma", "with \"quote\"", "",
                      " leading space", "trailing space ", "tab\tinside"));

TEST(CsvTest, FileRoundtrip) {
  std::string path =
      (std::filesystem::temp_directory_path() / "mlp_csv_test.csv").string();
  std::vector<std::vector<std::string>> rows = {
      {"h1", "h2"}, {"Austin, TX", "1"}, {"", "2"}};
  ASSERT_TRUE(WriteCsvFile(path, rows).ok());
  auto loaded = ReadCsvFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, rows);
  std::remove(path.c_str());
}

TEST(CsvTest, ReadMissingFileErrors) {
  auto result = ReadCsvFile("/nonexistent/definitely/not/here.csv");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
}

TEST(CsvTest, ParseIntFieldAcceptsTheIntRange) {
  EXPECT_EQ(ParseIntField("0", "id").ValueOrDie(), 0);
  EXPECT_EQ(ParseIntField("-1", "id").ValueOrDie(), -1);
  EXPECT_EQ(ParseIntField("2147483647", "id").ValueOrDie(), 2147483647);
  EXPECT_EQ(ParseIntField("-2147483648", "id").ValueOrDie(),
            std::numeric_limits<int>::min());
}

TEST(CsvTest, ParseIntFieldRejectsOutOfRangeValues) {
  // Each of these used to wrap onto a small id: 2^32 read as 0, 2^32 + 1
  // as 1, -(2^32 - 1) as 1.
  for (const char* field :
       {"4294967296", "4294967297", "-4294967295", "4294967298",
        "2147483648", "-2147483649", "99999999999999999999999999"}) {
    Result<int> parsed = ParseIntField(field, "id");
    EXPECT_FALSE(parsed.ok()) << field;
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << field;
  }
  EXPECT_FALSE(ParseIntField("", "id").ok());
  EXPECT_FALSE(ParseIntField("12x", "id").ok());
}

TEST(CsvTest, TsvSeparatorSupported) {
  auto fields = ParseCsvLine("a\tb", '\t');
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(FormatCsvLine({"a", "b"}, '\t'), "a\tb");
}

// ------------------------------------------------------------ table printer

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"Method", "ACC@100"});
  table.AddRow({"BaseU", "52.44%"});
  table.AddRow({"MLP", "62.3%"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("Method"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_NE(out.find("BaseU"), std::string::npos);
  // The ACC column is numeric, so it is right-aligned: "52.44%" and
  // "62.3%" must END at the same offset within their lines.
  size_t col_a = out.find("52.44%");
  size_t col_b = out.find("62.3%");
  ASSERT_NE(col_a, std::string::npos);
  ASSERT_NE(col_b, std::string::npos);
  size_t line_a = out.rfind('\n', col_a);
  size_t line_b = out.rfind('\n', col_b);
  EXPECT_EQ(col_a + 6 - line_a, col_b + 5 - line_b);
  // The label column is text and stays left-aligned: both labels start
  // right after their newline.
  size_t base_u = out.find("BaseU");
  size_t mlp = out.find("MLP");
  EXPECT_EQ(base_u - out.rfind('\n', base_u), mlp - out.rfind('\n', mlp));
}

TEST(TablePrinterTest, NumericColumnsRightAligned) {
  TablePrinter table({"n", "count"});
  table.AddRow({"a", "7"});
  table.AddRow({"b", "1234"});
  std::string out = table.ToString();
  // Right-aligned final column: "7" is padded out to the width of "1234",
  // so both data lines end at the same column (trailing pad is trimmed,
  // which under left-alignment would leave the lines ragged).
  EXPECT_NE(out.find("a      7\n"), std::string::npos) << out;
  EXPECT_NE(out.find("b   1234\n"), std::string::npos) << out;
}

TEST(TablePrinterTest, MixedColumnStaysLeftAligned) {
  TablePrinter table({"n", "value"});
  table.AddRow({"a", "12"});
  table.AddRow({"b", "n/a"});  // not numeric -> whole column left-aligned
  std::string out = table.ToString();
  EXPECT_NE(out.find("a  12\n"), std::string::npos) << out;
  EXPECT_NE(out.find("b  n/a\n"), std::string::npos) << out;
}

TEST(TablePrinterTest, ToCsvEscapesSeparatorsAndQuotes) {
  TablePrinter table({"stat", "value"});
  table.AddRow({"city", "Austin, TX"});
  table.AddRow({"quote", "say \"hi\""});
  table.AddRow({"plain", "42"});
  std::string csv = table.ToCsv();
  EXPECT_EQ(csv.rfind("stat,value\n", 0), 0u) << csv;
  EXPECT_NE(csv.find("city,\"Austin, TX\"\n"), std::string::npos) << csv;
  EXPECT_NE(csv.find("quote,\"say \"\"hi\"\"\"\n"), std::string::npos) << csv;
  EXPECT_NE(csv.find("plain,42\n"), std::string::npos) << csv;
  // Round-trips through the CSV parser.
  auto fields = ParseCsvLine("city,\"Austin, TX\"");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[1], "Austin, TX");
}

TEST(TablePrinterTest, NumericRowFormatting) {
  TablePrinter table({"name", "v1", "v2"});
  table.AddRow("row", {0.5064, 0.47}, 3);
  std::string out = table.ToString();
  EXPECT_NE(out.find("0.506"), std::string::npos);
  EXPECT_NE(out.find("0.470"), std::string::npos);
}

TEST(TablePrinterTest, ShortRowsPadded) {
  TablePrinter table({"a", "b", "c"});
  table.AddRow({"only"});
  EXPECT_NO_THROW(table.ToString());
}

// -------------------------------------------------------------- dataset io

TEST(DatasetIoTest, RoundtripsGraphAndTruth) {
  synth::WorldConfig config;
  config.num_users = 300;
  config.seed = 77;
  synth::SyntheticWorld world =
      std::move(synth::GenerateWorld(config).ValueOrDie());

  std::string dir =
      (std::filesystem::temp_directory_path() / "mlp_dataset_test").string();
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(SaveDataset(dir, *world.graph, &world.truth).ok());

  auto loaded = LoadDataset(dir, world.vocab->size());
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->has_truth);
  ASSERT_EQ(loaded->graph.num_users(), world.graph->num_users());
  ASSERT_EQ(loaded->graph.num_following(), world.graph->num_following());
  ASSERT_EQ(loaded->graph.num_tweeting(), world.graph->num_tweeting());

  for (graph::UserId u = 0; u < world.graph->num_users(); ++u) {
    EXPECT_EQ(loaded->graph.user(u).handle, world.graph->user(u).handle);
    EXPECT_EQ(loaded->graph.user(u).registered_city,
              world.graph->user(u).registered_city);
    EXPECT_EQ(loaded->truth.profiles[u].locations,
              world.truth.profiles[u].locations);
  }
  for (graph::EdgeId s = 0; s < world.graph->num_following(); ++s) {
    EXPECT_EQ(loaded->graph.following(s).follower,
              world.graph->following(s).follower);
    EXPECT_EQ(loaded->truth.following[s].noisy,
              world.truth.following[s].noisy);
    EXPECT_EQ(loaded->truth.following[s].x, world.truth.following[s].x);
  }
  for (graph::EdgeId k = 0; k < world.graph->num_tweeting(); ++k) {
    EXPECT_EQ(loaded->graph.tweeting(k).venue,
              world.graph->tweeting(k).venue);
    EXPECT_EQ(loaded->truth.tweeting[k].z, world.truth.tweeting[k].z);
  }
  std::filesystem::remove_all(dir);
}

TEST(DatasetIoTest, SaveWithoutTruthLoadsWithoutTruth) {
  graph::SocialGraph g(2);
  graph::UserRecord r;
  r.handle = "solo";
  r.profile_location = "Austin, TX";
  r.registered_city = 5;
  g.AddUser(r);
  g.AddUser({});
  ASSERT_TRUE(g.AddFollowing(0, 1).ok());
  ASSERT_TRUE(g.AddTweeting(0, 1).ok());
  g.Finalize();

  std::string dir =
      (std::filesystem::temp_directory_path() / "mlp_dataset_notruth")
          .string();
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(SaveDataset(dir, g, nullptr).ok());
  auto loaded = LoadDataset(dir, 2);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->has_truth);
  EXPECT_EQ(loaded->graph.num_users(), 2);
  EXPECT_EQ(loaded->graph.user(0).profile_location, "Austin, TX");
  std::filesystem::remove_all(dir);
}

TEST(DatasetIoTest, OutOfRangeIdsFailToLoad) {
  graph::SocialGraph g(2);
  g.AddUser({});
  g.AddUser({});
  ASSERT_TRUE(g.AddFollowing(0, 1).ok());
  g.Finalize();
  const std::string dir =
      (std::filesystem::temp_directory_path() / "mlp_dataset_range").string();
  // Rows that alias real ids when the parsed long is cut to int: the edge
  // 0 -> 1, and user 1 tweeting venue 2.
  const std::vector<std::pair<std::string, std::string>> bad_rows = {
      {"following.csv", "4294967296,4294967297\n"},
      {"tweeting.csv", "-4294967295,4294967298\n"},
  };
  for (const auto& [file, row] : bad_rows) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    ASSERT_TRUE(SaveDataset(dir, g, nullptr).ok());
    ASSERT_TRUE(LoadDataset(dir, 8).ok());
    std::FILE* f = std::fopen((dir + "/" + file).c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs(row.c_str(), f);
    std::fclose(f);
    Result<LoadedDataset> loaded = LoadDataset(dir, 8);
    EXPECT_FALSE(loaded.ok()) << file;
    if (!loaded.ok()) {
      EXPECT_TRUE(loaded.status().IsInvalidArgument()) << file;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(DatasetIoTest, LoadFromMissingDirectoryErrors) {
  EXPECT_FALSE(LoadDataset("/definitely/not/a/dir", 1).ok());
}

}  // namespace
}  // namespace io
}  // namespace mlp
