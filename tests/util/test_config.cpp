#include "util/config.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace hacc::util {
namespace {

// Reads `key` into a field preset to `fallback`; the field after the read.
template <typename T>
T read_or(const Config& c, const std::string& key, T fallback) {
  std::string error;
  c.read(key, fallback, error);
  return fallback;
}

// True iff `key` is present and does not read as a T; the error must then
// name the key and quote its text.
template <typename T>
bool rejects(const Config& c, const std::string& key) {
  T field{};
  std::string error;
  if (c.read(key, field, error)) return false;
  EXPECT_NE(error.find(key), std::string::npos) << error;
  EXPECT_NE(error.find("'" + c.get_string(key, "") + "'"), std::string::npos) << error;
  return true;
}

TEST(Config, ParsesKeyValuePairs) {
  Config c;
  ASSERT_TRUE(c.parse("np = 32\nbox_mpc = 177.0\nkernel = upGeo\n"));
  EXPECT_EQ(read_or(c, "np", 0), 32);
  EXPECT_DOUBLE_EQ(read_or(c, "box_mpc", 0.0), 177.0);
  EXPECT_EQ(c.get_string("kernel", ""), "upGeo");
  EXPECT_EQ(read_or(c, "kernel", std::string()), "upGeo");
}

TEST(Config, CommentsAndBlankLinesIgnored) {
  Config c;
  ASSERT_TRUE(c.parse("# header comment\n\n  a = 1  # trailing\n\n#only comment\n"));
  EXPECT_EQ(read_or(c, "a", 0), 1);
  EXPECT_EQ(c.values().size(), 1u);
}

TEST(Config, MalformedLineFails) {
  Config c;
  EXPECT_FALSE(c.parse("this is not a pair\n"));
  EXPECT_NE(c.error().find("line 1"), std::string::npos);
}

TEST(Config, EmptyKeyFails) {
  Config c;
  EXPECT_FALSE(c.parse(" = 3\n"));
}

TEST(Config, FallbacksWhenMissing) {
  // An absent key is not an error: the field keeps its preset value.
  Config c;
  ASSERT_TRUE(c.parse(""));
  std::string error;
  long n = 7;
  EXPECT_TRUE(c.read("missing", n, error));
  EXPECT_EQ(n, 7);
  EXPECT_DOUBLE_EQ(read_or(c, "missing", 2.5), 2.5);
  EXPECT_EQ(c.get_string("missing", "dflt"), "dflt");
  EXPECT_TRUE(read_or(c, "missing", true));
  EXPECT_TRUE(error.empty());
}

TEST(Config, BoolParsing) {
  Config c;
  ASSERT_TRUE(c.parse("a = true\nb = 0\nc = yes\nd = off\ne = ture\nf = TRUE\n"));
  EXPECT_TRUE(read_or(c, "a", false));
  EXPECT_FALSE(read_or(c, "b", true));
  EXPECT_TRUE(read_or(c, "c", false));
  EXPECT_FALSE(read_or(c, "d", true));
  EXPECT_TRUE(rejects<bool>(c, "e"));
  EXPECT_TRUE(rejects<bool>(c, "f"));
  std::string error;
  bool field = false;
  EXPECT_FALSE(c.read("e", field, error));
  EXPECT_EQ(error, "invalid e 'ture' (need true | 1 | yes | on | false | 0 | no | off)");
}

TEST(Config, LaterValuesOverrideEarlier) {
  Config c;
  ASSERT_TRUE(c.parse("x = 1\nx = 2\n"));
  EXPECT_EQ(read_or(c, "x", 0), 2);
}

TEST(Config, CommandLineOverrides) {
  Config c;
  ASSERT_TRUE(c.parse("np = 16\n"));
  const char* argv[] = {"np=64", "variant=select", "notakv", "=bad"};
  c.apply_overrides(4, argv);
  EXPECT_EQ(read_or(c, "np", 0), 64);
  EXPECT_EQ(c.get_string("variant", ""), "select");
  EXPECT_FALSE(c.has("notakv"));
}

TEST(Config, NonNumericFallsBack) {
  // A present but non-numeric value is an error, and the field keeps its
  // value: a typo never silently becomes the fallback.
  Config c;
  ASSERT_TRUE(c.parse("word = hello\n"));
  EXPECT_EQ(read_or(c, "word", -3), -3);
  EXPECT_TRUE(rejects<int>(c, "word"));
  EXPECT_TRUE(rejects<double>(c, "word"));
}

TEST(Config, TrailingGarbageRejected) {
  Config c;
  ASSERT_TRUE(c.parse("steps = 10abc\nbox = 3.5mpc\nneg = -2x\n"));
  EXPECT_EQ(read_or(c, "steps", -1), -1);
  EXPECT_DOUBLE_EQ(read_or(c, "box", -1.0), -1.0);
  EXPECT_EQ(read_or(c, "neg", -1), -1);
  EXPECT_TRUE(rejects<int>(c, "steps"));
  EXPECT_TRUE(rejects<double>(c, "box"));
  EXPECT_TRUE(rejects<long>(c, "neg"));
}

TEST(Config, OutOfRangeRejected) {
  Config c;
  ASSERT_TRUE(c.parse("big = 99999999999999999999999\nhuge = 1e999\nwide = 4294967304\n"
                      "neg = -1\n"));
  EXPECT_EQ(read_or(c, "big", -1L), -1L);
  EXPECT_DOUBLE_EQ(read_or(c, "huge", -1.0), -1.0);
  EXPECT_TRUE(rejects<long>(c, "big"));
  EXPECT_TRUE(rejects<double>(c, "huge"));
  // Fits a long, not the field.
  EXPECT_TRUE(rejects<int>(c, "wide"));
  EXPECT_EQ(read_or(c, "wide", std::uint64_t{0}), 4294967304u);
  EXPECT_TRUE(rejects<std::uint64_t>(c, "neg"));
  std::string error;
  int field = 0;
  EXPECT_FALSE(c.read("wide", field, error));
  EXPECT_EQ(error, "invalid wide '4294967304' (need an integer in [-2147483648, 2147483647])");
}

TEST(Config, CleanNumbersStillParse) {
  Config c;
  ASSERT_TRUE(c.parse("steps = 10\nbox = 3.5\nexp = 1e3\nneg = -7\nplus = +16\n"));
  EXPECT_EQ(read_or(c, "steps", -1), 10);
  EXPECT_DOUBLE_EQ(read_or(c, "box", -1.0), 3.5);
  EXPECT_DOUBLE_EQ(read_or(c, "exp", -1.0), 1000.0);
  EXPECT_TRUE(rejects<int>(c, "exp"));  // 1e3 is a double, not an integer
  EXPECT_EQ(read_or(c, "neg", 0), -7);
  EXPECT_EQ(read_or(c, "plus", 0), 16);
  // set() stores verbatim; surrounding whitespace must still parse.
  c.set("padded", " 10 ");
  EXPECT_EQ(read_or(c, "padded", -1), 10);
  EXPECT_DOUBLE_EQ(read_or(c, "padded", -1.0), 10.0);
  c.set("nan", "nan");
  c.set("inf", "inf");
  EXPECT_TRUE(std::isnan(read_or(c, "nan", 0.0)));
  EXPECT_TRUE(std::isinf(read_or(c, "inf", 0.0)));
  c.set("empty", "");
  c.set("blank", "  ");
  EXPECT_TRUE(rejects<int>(c, "empty"));
  EXPECT_TRUE(rejects<double>(c, "blank"));
}

TEST(Config, ProgramPathWithEqualsNotIngested) {
  Config c;
  // Full argv including argv[0]: a program path containing '=' must not
  // become a config override, while real key=value arguments still apply.
  const char* argv[] = {"./out/run=prod/standalone_kernel", "np=8"};
  c.apply_overrides(2, argv);
  EXPECT_FALSE(c.has("./out/run"));
  EXPECT_EQ(c.values().size(), 1u);
  EXPECT_EQ(read_or(c, "np", 0), 8);
}

TEST(Config, DottedKeysRoundTrip) {
  // Namespaced keys like gravity.backend flow through file parsing and
  // command-line overrides unchanged.
  Config c;
  ASSERT_TRUE(c.parse("gravity.backend = fmm\ngravity.theta = 0.5\n"));
  EXPECT_EQ(c.get_string("gravity.backend", ""), "fmm");
  EXPECT_DOUBLE_EQ(read_or(c, "gravity.theta", 0.0), 0.5);
  const char* argv[] = {"gravity.backend=treepm"};
  c.apply_overrides(1, argv);
  EXPECT_EQ(c.get_string("gravity.backend", ""), "treepm");
}

TEST(Config, UnreadKeysListsWhatNoLookupTouched) {
  Config c;
  ASSERT_TRUE(c.parse("np = 8\nstpes = 1\nkernel = upGeo\n"));
  const char* argv[] = {"threads=2", "box=25", "hydro=ture"};
  c.apply_overrides(3, argv);
  EXPECT_EQ(c.unread_keys(),
            (std::vector<std::string>{"box", "hydro", "kernel", "np", "stpes", "threads"}));
  // read, get_string and has each count as a lookup, whether the value
  // parses (np), is refused (hydro) or is absent (steps).
  int np = 0;
  bool hydro = false;
  int steps = 5;
  std::string error;
  EXPECT_TRUE(c.read("np", np, error));
  EXPECT_FALSE(c.read("hydro", hydro, error));
  EXPECT_TRUE(c.read("steps", steps, error));
  EXPECT_EQ(c.get_string("kernel", ""), "upGeo");
  EXPECT_TRUE(c.has("threads"));
  EXPECT_EQ(c.unread_keys(), (std::vector<std::string>{"box", "stpes"}));
  EXPECT_TRUE(c.has("box"));
  EXPECT_EQ(c.unread_keys(), std::vector<std::string>{"stpes"});
}

TEST(ParseNumber, WholeTextOnly) {
  long i = -1;
  double d = -1.0;
  EXPECT_TRUE(parse_number("\t42\n", i));
  EXPECT_EQ(i, 42);
  EXPECT_FALSE(parse_number("4 2", i));
  EXPECT_FALSE(parse_number("0x10", i));
  EXPECT_EQ(i, 42);  // untouched on failure
  EXPECT_TRUE(parse_number("0x10", d));
  EXPECT_DOUBLE_EQ(d, 16.0);
  EXPECT_FALSE(parse_number("1e-400", d));  // underflow
  EXPECT_FALSE(parse_number("1.5.2", d));
  EXPECT_DOUBLE_EQ(d, 16.0);
}

}  // namespace
}  // namespace hacc::util
