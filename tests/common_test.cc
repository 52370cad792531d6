// Tests for flags, status, and the table printer.

#include <gtest/gtest.h>

#include "common/flags.h"
#include "common/status.h"
#include "common/table_printer.h"

namespace wfm {
namespace {

std::vector<char*> MakeArgv(std::vector<std::string>& storage) {
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  return argv;
}

TEST(FlagParserTest, ParsesEqualsForm) {
  std::vector<std::string> args{"prog", "--n=64", "--eps=1.5", "--name=abc"};
  auto argv = MakeArgv(args);
  FlagParser flags(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(flags.GetInt("n", 0), 64);
  EXPECT_DOUBLE_EQ(flags.GetDouble("eps", 0.0), 1.5);
  EXPECT_EQ(flags.GetString("name", ""), "abc");
}

TEST(FlagParserTest, ParsesSpaceForm) {
  std::vector<std::string> args{"prog", "--n", "32"};
  auto argv = MakeArgv(args);
  FlagParser flags(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(flags.GetInt("n", 0), 32);
}

TEST(FlagParserTest, BareBooleanFlag) {
  std::vector<std::string> args{"prog", "--full", "--verbose"};
  auto argv = MakeArgv(args);
  FlagParser flags(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(flags.GetBool("full", false));
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_FALSE(flags.GetBool("absent", false));
}

TEST(FlagParserTest, Defaults) {
  std::vector<std::string> args{"prog"};
  auto argv = MakeArgv(args);
  FlagParser flags(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(flags.GetInt("n", 7), 7);
  EXPECT_EQ(flags.GetString("s", "x"), "x");
  EXPECT_FALSE(flags.Has("n"));
}

TEST(FlagParserTest, DoubleList) {
  std::vector<std::string> args{"prog", "--eps=0.5,1,2,4"};
  auto argv = MakeArgv(args);
  FlagParser flags(static_cast<int>(argv.size()), argv.data());
  const auto eps = flags.GetDoubleList("eps", {});
  ASSERT_EQ(eps.size(), 4u);
  EXPECT_DOUBLE_EQ(eps[0], 0.5);
  EXPECT_DOUBLE_EQ(eps[3], 4.0);
}

TEST(FlagParserTest, IntList) {
  std::vector<std::string> args{"prog", "--domains=8,16,32"};
  auto argv = MakeArgv(args);
  FlagParser flags(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(flags.GetIntList("domains", {}), (std::vector<int>{8, 16, 32}));
}

TEST(FlagParserTest, ParsesSignedAndExponentValues) {
  std::vector<std::string> args{"prog", "--n=-3", "--eps=2.5e-1",
                                "--big=2147483647", "--sizes=-1,0,7,",
                                "--grid=1e3,0.25"};
  auto argv = MakeArgv(args);
  FlagParser flags(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(flags.GetInt("n", 0), -3);
  EXPECT_EQ(flags.GetDouble("eps", 0.0), 0.25);
  EXPECT_EQ(flags.GetInt("big", 0), 2147483647);
  EXPECT_EQ(flags.GetIntList("sizes", {}), (std::vector<int>{-1, 0, 7}));
  EXPECT_EQ(flags.GetDoubleList("grid", {}), (std::vector<double>{1e3, 0.25}));
}

// Parses one flag from a single `--name=value` argument.
template <typename Get>
void ParseOne(const std::string& arg, Get get) {
  std::vector<std::string> args{"prog", arg};
  auto argv = MakeArgv(args);
  const FlagParser flags(static_cast<int>(argv.size()), argv.data());
  get(flags);
}

TEST(FlagParserDeathTest, MalformedNumbersExitWithStatus2) {
  const auto exit2 = ::testing::ExitedWithCode(2);
  auto get_double = [](const FlagParser& f) { f.GetDouble("eps", 1.0); };
  auto get_int = [](const FlagParser& f) { f.GetInt("n", 1); };
  EXPECT_EXIT(ParseOne("--eps=banana", get_double), exit2,
              "flag --eps: 'banana' is not a number");
  EXPECT_EXIT(ParseOne("--eps=1.5x", get_double), exit2,
              "flag --eps: '1.5x' is not a number");
  EXPECT_EXIT(ParseOne("--eps=", get_double), exit2,
              "flag --eps: '' is not a number");
  EXPECT_EXIT(ParseOne("--eps=1e999", get_double), exit2,
              "flag --eps: '1e999' is out of range");
  EXPECT_EXIT(ParseOne("--eps=inf", get_double), exit2,
              "flag --eps: 'inf' is not a finite number");
  EXPECT_EXIT(ParseOne("--n=12abc", get_int), exit2,
              "flag --n: '12abc' is not a number");
  EXPECT_EXIT(ParseOne("--n=2.5", get_int), exit2,
              "flag --n: '2.5' is not a number");
  EXPECT_EXIT(ParseOne("--n=", get_int), exit2, "flag --n: '' is not a number");
  EXPECT_EXIT(ParseOne("--n=99999999999", get_int), exit2,
              "flag --n: '99999999999' is out of range");
}

TEST(FlagParserDeathTest, MalformedListItemExitsWithStatus2) {
  const auto exit2 = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(ParseOne("--eps=0.5,banana,2",
                       [](const FlagParser& f) { f.GetDoubleList("eps", {}); }),
              exit2, "flag --eps: 'banana' is not a number");
  EXPECT_EXIT(ParseOne("--domains=8,16x",
                       [](const FlagParser& f) { f.GetIntList("domains", {}); }),
              exit2, "flag --domains: '16x' is not a number");
  EXPECT_EXIT(ParseOne("--domains=8,4294967296",
                       [](const FlagParser& f) { f.GetIntList("domains", {}); }),
              exit2, "flag --domains: '4294967296' is out of range");
}

TEST(FlagParserTest, UnusedFlagsTracked) {
  std::vector<std::string> args{"prog", "--used=1", "--typo=2"};
  auto argv = MakeArgv(args);
  FlagParser flags(static_cast<int>(argv.size()), argv.data());
  flags.GetInt("used", 0);
  const auto unused = flags.UnusedFlags();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(FlagParserTest, WarnUnusedFlagsCountsOnlyUnqueried) {
  std::vector<std::string> args{"prog", "--used=1", "--typo=2", "--oops"};
  auto argv = MakeArgv(args);
  FlagParser flags(static_cast<int>(argv.size()), argv.data());
  flags.GetInt("used", 0);
  EXPECT_EQ(WarnUnusedFlags(flags), 2);  // Prints to stderr; count checked.
  flags.GetBool("oops", false);
  flags.GetInt("typo", 0);
  EXPECT_EQ(WarnUnusedFlags(flags), 0);
}

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  const Status s = Status::InvalidArgument("bad");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad");
}

TEST(StatusOrTest, HoldsValueOrStatus) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  StatusOr<int> e(Status::NotFound("missing"));
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kNotFound);
}

TEST(TablePrinterTest, NumFormatting) {
  EXPECT_EQ(TablePrinter::Num(0.0), "0");
  EXPECT_EQ(TablePrinter::Num(1.5), "1.5");
  // Large and tiny values go scientific.
  EXPECT_NE(TablePrinter::Num(1.23456e9).find("e"), std::string::npos);
  EXPECT_NE(TablePrinter::Num(1.2e-7).find("e"), std::string::npos);
}

TEST(TablePrinterDeathTest, RowWidthMismatch) {
  TablePrinter t({"a", "b"});
  EXPECT_DEATH(t.AddRow({"only one"}), "WFM_CHECK");
}

}  // namespace
}  // namespace wfm
