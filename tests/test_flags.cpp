// The declarative flag table every driver parses its argv with: one table
// of argv -> (result, parsed values or error) cases covering every value
// kind, range edges, overflow, both spellings, and the rejected inputs.
#include "util/flags.h"

#include <gtest/gtest.h>

#include <climits>
#include <sstream>
#include <string>
#include <vector>

namespace compass::util {
namespace {

struct Vars {
  std::string s;
  std::uint64_t u = 7;
  std::uint64_t big = 0;
  int top = 5;
  double tolerance = 10.0;
  bool b = false;
  std::string c = "mpi";
  std::vector<std::string> pos;
};

Flags make_flags(Vars& v) {
  Flags f("prog", "usage: prog [file] [options]\n",
          {
              Flag::text("--s", v.s, "F", "a string"),
              Flag::u64("--u", v.u, 2, 100, "a bounded integer"),
              Flag::u64("--big", v.big, 0, UINT64_MAX, "a full-range integer"),
              Flag::u64("--top", v.top, 1, INT_MAX, "an int"),
              Flag::real("--tolerance", v.tolerance, 0.0, "a percentage"),
              Flag::toggle("--b", v.b, "a switch"),
              Flag::choice("--c", v.c, {"mpi", "pgas"}, "a choice"),
          });
  f.positionals(v.pos, 1);
  return f;
}

std::string dump(const Vars& v) {
  std::ostringstream os;
  os << "s=" << v.s << " u=" << v.u << " big=" << v.big << " top=" << v.top
     << " tol=" << v.tolerance << " b=" << v.b << " c=" << v.c << " pos=";
  for (const std::string& p : v.pos) os << p << ';';
  return os.str();
}

const std::string kDefaults = "s= u=7 big=0 top=5 tol=10 b=0 c=mpi pos=";

struct Case {
  std::vector<std::string> args;  // argv after the program name
  Flags::Result result;
  std::string expect;  // kOk: dump() after parsing; kError: error() substring
};

const Case kCases[] = {
    // Every kind, both spellings.
    {{}, Flags::Result::kOk, kDefaults},
    {{"--s", "x"}, Flags::Result::kOk,
     "s=x u=7 big=0 top=5 tol=10 b=0 c=mpi pos="},
    {{"--s=a=b"}, Flags::Result::kOk,
     "s=a=b u=7 big=0 top=5 tol=10 b=0 c=mpi pos="},
    {{"--u", "42", "--top=3", "--tolerance", "2.5", "--b", "--c=pgas", "f"},
     Flags::Result::kOk, "s= u=42 big=0 top=3 tol=2.5 b=1 c=pgas pos=f;"},
    {{"--u", "9", "--u", "11"}, Flags::Result::kOk,
     "s= u=11 big=0 top=5 tol=10 b=0 c=mpi pos="},
    {{"--tolerance", "0"}, Flags::Result::kOk,
     "s= u=7 big=0 top=5 tol=0 b=0 c=mpi pos="},
    // Range edges: min, max, max + 1, 2^64.
    {{"--u", "2"}, Flags::Result::kOk,
     "s= u=2 big=0 top=5 tol=10 b=0 c=mpi pos="},
    {{"--u", "100"}, Flags::Result::kOk,
     "s= u=100 big=0 top=5 tol=10 b=0 c=mpi pos="},
    {{"--u", "1"}, Flags::Result::kError, "--u must be in [2, 100], got 1"},
    {{"--u", "101"}, Flags::Result::kError, "--u must be in [2, 100], got 101"},
    {{"--big", "18446744073709551615"}, Flags::Result::kOk,
     "s= u=7 big=18446744073709551615 top=5 tol=10 b=0 c=mpi pos="},
    {{"--big", "18446744073709551616"}, Flags::Result::kError,
     "out of range"},
    {{"--top", "2147483648"}, Flags::Result::kError,
     "--top must be in [1, 2147483647]"},
    {{"--top", "0"}, Flags::Result::kError, "--top must be in [1,"},
    // Empty and missing values.
    {{"--u", ""}, Flags::Result::kError, "--u requires a value, got ''"},
    {{"--s="}, Flags::Result::kError, "--s requires a value, got ''"},
    {{"--c", ""}, Flags::Result::kError, "--c requires a value, got ''"},
    {{"--s"}, Flags::Result::kError, "--s requires a value"},
    {{"--tolerance"}, Flags::Result::kError, "--tolerance requires a value"},
    // Trailing junk, signs, blanks, NaN and infinities.
    {{"--top", "3x"}, Flags::Result::kError,
     "--top requires a non-negative integer, got '3x'"},
    {{"--u", "-5"}, Flags::Result::kError, "non-negative integer"},
    {{"--u", " 5"}, Flags::Result::kError, "non-negative integer"},
    {{"--u", "0x10"}, Flags::Result::kError, "non-negative integer"},
    {{"--tolerance", "20abc"}, Flags::Result::kError,
     "--tolerance requires a finite number, got '20abc'"},
    {{"--tolerance", "nan"}, Flags::Result::kError, "finite number"},
    {{"--tolerance", "NaN"}, Flags::Result::kError, "finite number"},
    {{"--tolerance", "inf"}, Flags::Result::kError, "finite number"},
    {{"--tolerance", "-inf"}, Flags::Result::kError, "finite number"},
    {{"--tolerance", "1e999"}, Flags::Result::kError, "finite number"},
    {{"--tolerance", " 5"}, Flags::Result::kError, "finite number"},
    {{"--tolerance", "-1"}, Flags::Result::kError,
     "--tolerance must be >= 0, got -1"},
    // Switches and choices.
    {{"--b=1"}, Flags::Result::kError, "--b takes no value"},
    {{"--c", "tcp"}, Flags::Result::kError,
     "--c must be one of mpi|pgas, got 'tcp'"},
    // Unknown flags and extra positionals.
    {{"--bogus"}, Flags::Result::kError, "unknown option --bogus"},
    {{"--bogus=1"}, Flags::Result::kError, "unknown option --bogus=1"},
    {{"-x"}, Flags::Result::kError, "unknown option -x"},
    {{"-"}, Flags::Result::kError, "unknown option -"},
    {{""}, Flags::Result::kError, "unknown option"},
    {{"a", "b"}, Flags::Result::kError, "unexpected argument 'b'"},
    // Help wins wherever it appears.
    {{"--u", "9", "--help"}, Flags::Result::kHelp, ""},
    {{"-h"}, Flags::Result::kHelp, ""},
};

TEST(Flags, TableOfCases) {
  for (const Case& tc : kCases) {
    std::string joined;
    for (const std::string& a : tc.args) joined += "'" + a + "' ";
    SCOPED_TRACE(joined);
    Vars v;
    Flags f = make_flags(v);
    std::vector<const char*> argv{"prog"};
    for (const std::string& a : tc.args) argv.push_back(a.c_str());
    const Flags::Result r =
        f.parse(static_cast<int>(argv.size()), argv.data());
    ASSERT_EQ(r, tc.result) << f.error();
    if (r == Flags::Result::kOk) {
      EXPECT_EQ(dump(v), tc.expect);
      EXPECT_TRUE(f.error().empty());
    } else if (r == Flags::Result::kError) {
      EXPECT_NE(f.error().find(tc.expect), std::string::npos) << f.error();
    }
  }
}

TEST(Flags, NoPositionalsAcceptedByDefault) {
  bool b = false;
  Flags f("prog", "", {Flag::toggle("--b", b, "a switch")});
  const char* argv[] = {"prog", "--b", "stray"};
  ASSERT_EQ(f.parse(3, argv), Flags::Result::kError);
  EXPECT_EQ(f.error(), "unexpected argument 'stray'");
}

TEST(Flags, ParseStartsAtFirst) {
  // compass_cli parses after its subcommand word.
  Vars v;
  Flags f = make_flags(v);
  const char* argv[] = {"prog", "run", "--u", "3"};
  ASSERT_EQ(f.parse(4, argv, 2), Flags::Result::kOk) << f.error();
  EXPECT_EQ(v.u, 3u);
  EXPECT_TRUE(v.pos.empty());
}

TEST(Flags, UsageNamesEveryRowAndItsDefault) {
  Vars v;
  v.s = "out.json";
  const Flags f = make_flags(v);
  std::ostringstream os;
  f.usage(os);
  const std::string text = os.str();
  EXPECT_EQ(text.rfind("usage: prog [file] [options]\n", 0), 0u);
  for (const char* line :
       {"--s F", "(default out.json)", "--u N", "(default 7)", "--big N",
        "--top N", "(default 5)", "--tolerance X", "(default 10)", "--b ",
        "--c mpi|pgas", "(default mpi)", "a bounded integer", "a switch"}) {
    EXPECT_NE(text.find(line), std::string::npos) << line;
  }
  // Switches print no default.
  const std::size_t b = text.find("  --b ");
  ASSERT_NE(b, std::string::npos);
  const std::string b_line = text.substr(b, text.find('\n', b) - b);
  EXPECT_EQ(b_line.find("(default"), std::string::npos) << b_line;
}

}  // namespace
}  // namespace compass::util
