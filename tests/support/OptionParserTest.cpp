//===- tests/support/OptionParserTest.cpp - Option table tests ------------===//
//
// Part of the control-cpr project (PLDI 1999 Control CPR reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/OptionParser.h"

#include <gtest/gtest.h>

using namespace cpr;

namespace {

/// Builds argv from string literals for parse() calls.
struct Argv {
  explicit Argv(std::initializer_list<const char *> Args) {
    Strings.emplace_back("tool");
    for (const char *A : Args)
      Strings.emplace_back(A);
    for (std::string &S : Strings)
      Ptrs.push_back(S.data());
  }
  int argc() { return static_cast<int>(Ptrs.size()); }
  char **argv() { return Ptrs.data(); }
  std::vector<std::string> Strings;
  std::vector<char *> Ptrs;
};

} // namespace

TEST(OptionTable, ParsesAllArgumentShapes) {
  bool Flag = false;
  unsigned N = 0;
  double D = 0.0;
  std::string S;
  std::vector<std::string> Regs;
  OptionTable T;
  T.addFlag("--flag", "a flag", Flag);
  T.addUnsigned("--n", "<n>", "a count", N);
  T.addDouble("--d", "<f>", "a ratio", D);
  T.addString("--s", "<str>", "a string", S);
  T.add({"--reg", OptArg::Separate, "rN=V", "repeatable",
         [&Regs](const std::string &V) {
           Regs.push_back(V);
           return true;
         }});

  Argv A({"--flag", "--n=42", "--d=0.75", "--s=hello", "--reg", "r1=5",
          "--reg", "r2=6", "input.cpr"});
  std::string Error;
  std::vector<std::string> Positional;
  ASSERT_TRUE(T.parse(A.argc(), A.argv(), Error, &Positional)) << Error;
  EXPECT_TRUE(Flag);
  EXPECT_EQ(N, 42u);
  EXPECT_EQ(D, 0.75);
  EXPECT_EQ(S, "hello");
  EXPECT_EQ(Regs, (std::vector<std::string>{"r1=5", "r2=6"}));
  EXPECT_EQ(Positional, (std::vector<std::string>{"input.cpr"}));
}

TEST(OptionTable, FlagCanClearATarget) {
  bool Enabled = true;
  OptionTable T;
  T.addFlag("--no-thing", "disable", Enabled, /*Value=*/false);
  Argv A({"--no-thing"});
  std::string Error;
  ASSERT_TRUE(T.parse(A.argc(), A.argv(), Error, nullptr));
  EXPECT_FALSE(Enabled);
}

TEST(OptionTable, RejectsMalformedInput) {
  unsigned N = 0;
  std::vector<std::string> Seps;
  OptionTable T;
  T.addUnsigned("--n", "<n>", "a count", N);
  T.add({"--sep", OptArg::Separate, "<v>", "separate",
         [&Seps](const std::string &V) {
           Seps.push_back(V);
           return true;
         }});
  std::string Error;

  Argv Bad({"--n=notanumber"});
  EXPECT_FALSE(T.parse(Bad.argc(), Bad.argv(), Error, nullptr));
  EXPECT_NE(Error.find("--n"), std::string::npos);

  Argv Missing({"--n"});
  EXPECT_FALSE(T.parse(Missing.argc(), Missing.argv(), Error, nullptr));

  Argv NoArg({"--sep"});
  EXPECT_FALSE(T.parse(NoArg.argc(), NoArg.argv(), Error, nullptr));

  Argv Unknown({"--mystery"});
  EXPECT_FALSE(T.parse(Unknown.argc(), Unknown.argv(), Error, nullptr));
  EXPECT_NE(Error.find("--mystery"), std::string::npos);
}

TEST(OptionTable, HelpIsGeneratedFromTheTable) {
  bool Flag = false;
  unsigned N = 0;
  OptionTable T;
  T.addFlag("--flag", "turns the thing on", Flag);
  T.addUnsigned("--threads", "<n>", "worker threads", N);
  std::string Help = T.help("usage: tool [options]");
  EXPECT_NE(Help.find("usage: tool [options]"), std::string::npos);
  EXPECT_NE(Help.find("--flag"), std::string::npos);
  EXPECT_NE(Help.find("turns the thing on"), std::string::npos);
  EXPECT_NE(Help.find("--threads=<n>"), std::string::npos);
  EXPECT_NE(Help.find("worker threads"), std::string::npos);
}
