#include "tools/flags.h"

#include <gtest/gtest.h>

#include <string>

#include "core/chase.h"
#include "util/status.h"

namespace twchase {
namespace {

using flags::ArgMatcher;
using flags::ParseOutcome;
using flags::ParseSize;
using flags::ParseSizeChecked;

TEST(ParseSizeTest, AcceptsPlainDecimals) {
  size_t value = 99;
  EXPECT_TRUE(ParseSize("0", &value));
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(ParseSize("1000", &value));
  EXPECT_EQ(value, 1000u);
  EXPECT_TRUE(ParseSize("18446744073709551615", &value));  // SIZE_MAX
  EXPECT_EQ(value, SIZE_MAX);
}

TEST(ParseSizeTest, RejectsEverythingElse) {
  size_t value = 7;
  EXPECT_FALSE(ParseSize("", &value));
  EXPECT_FALSE(ParseSize("abc", &value));
  EXPECT_FALSE(ParseSize("12x", &value));   // strtoul would yield 12
  EXPECT_FALSE(ParseSize("x12", &value));   // strtoul would yield 0
  EXPECT_FALSE(ParseSize("-3", &value));
  EXPECT_FALSE(ParseSize("+3", &value));
  EXPECT_FALSE(ParseSize(" 3", &value));
  EXPECT_FALSE(ParseSize("3 ", &value));
  EXPECT_FALSE(ParseSize("18446744073709551616", &value));  // SIZE_MAX + 1
  EXPECT_EQ(value, 7u) << "failed parses must not clobber the output";
}

TEST(ParseSizeTest, CheckedOutcomesAreSpecific) {
  // The distinct outcomes drive distinct user-facing errors; collapsing
  // them back into one generic "not an integer" is a regression.
  size_t value = 7;
  EXPECT_EQ(ParseSizeChecked("12", &value), ParseOutcome::kOk);
  EXPECT_EQ(value, 12u);
  EXPECT_EQ(ParseSizeChecked("", &value), ParseOutcome::kMalformed);
  EXPECT_EQ(ParseSizeChecked("abc", &value), ParseOutcome::kMalformed);
  EXPECT_EQ(ParseSizeChecked("-", &value), ParseOutcome::kMalformed);
  EXPECT_EQ(ParseSizeChecked("-x", &value), ParseOutcome::kMalformed);
  EXPECT_EQ(ParseSizeChecked("-1", &value), ParseOutcome::kNegative);
  EXPECT_EQ(ParseSizeChecked("-999999", &value), ParseOutcome::kNegative);
  EXPECT_EQ(ParseSizeChecked("99999999999999999999", &value),
            ParseOutcome::kOutOfRange);  // > SIZE_MAX: 20 nines
  EXPECT_EQ(ParseSizeChecked("18446744073709551616", &value),
            ParseOutcome::kOutOfRange);  // SIZE_MAX + 1 exactly
  EXPECT_EQ(value, 12u) << "failed parses must not clobber the output";
}

TEST(ArgMatcherTest, BareFlag) {
  bool hit = false;
  std::string arg = "--measures";
  ArgMatcher m(arg);
  EXPECT_FALSE(m.Flag("--robust", &hit));
  EXPECT_FALSE(hit);
  EXPECT_TRUE(m.Flag("--measures", &hit));
  EXPECT_TRUE(hit);
  EXPECT_TRUE(m.ok());
}

TEST(ArgMatcherTest, ValueFlag) {
  std::string value;
  std::string arg = "--variant=core";
  ArgMatcher m(arg);
  EXPECT_FALSE(m.Value("--var", &value));  // prefix must match exactly
  EXPECT_TRUE(m.Value("--variant", &value));
  EXPECT_EQ(value, "core");

  std::string empty_arg = "--events-out=";
  ArgMatcher m2(empty_arg);
  EXPECT_TRUE(m2.Value("--events-out", &value));
  EXPECT_EQ(value, "");
}

TEST(ArgMatcherTest, SizeValueParsesStrictly) {
  size_t steps = 0;
  std::string arg = "--max-steps=250";
  ArgMatcher m(arg);
  EXPECT_TRUE(m.SizeValue("--max-steps", &steps));
  EXPECT_EQ(steps, 250u);
  EXPECT_TRUE(m.ok());
}

TEST(ArgMatcherTest, MalformedSizeIsConsumedWithError) {
  // The historical strtoul parser mapped "--max-steps=abc" silently to 0;
  // the matcher must consume the token (ending flag dispatch) but report.
  size_t steps = 42;
  std::string arg = "--max-steps=abc";
  ArgMatcher m(arg);
  EXPECT_TRUE(m.SizeValue("--max-steps", &steps));
  EXPECT_EQ(steps, 42u);
  EXPECT_FALSE(m.ok());
  EXPECT_NE(m.error().find("--max-steps"), std::string::npos);
  EXPECT_NE(m.error().find("'abc'"), std::string::npos);
}

TEST(ArgMatcherTest, OverflowingSizeReportsOutOfRange) {
  // "--max-steps=99999999999999999999" must say the value overflows the
  // 64-bit target, not that it is "not an integer" — the user typed a
  // perfectly good integer.
  size_t steps = 42;
  std::string arg = "--max-steps=99999999999999999999";
  ArgMatcher m(arg);
  EXPECT_TRUE(m.SizeValue("--max-steps", &steps));
  EXPECT_EQ(steps, 42u);
  EXPECT_FALSE(m.ok());
  EXPECT_NE(m.error().find("--max-steps"), std::string::npos);
  EXPECT_NE(m.error().find("out of range: overflows the 64-bit target"),
            std::string::npos)
      << m.error();
}

TEST(ArgMatcherTest, NegativeSizeReportsNegative) {
  // "--deadline-ms=-1" must say negative values are not accepted (with
  // the malformed-input message reserved for genuine garbage).
  size_t deadline = 42;
  std::string arg = "--deadline-ms=-1";
  ArgMatcher m(arg);
  EXPECT_TRUE(m.SizeValue("--deadline-ms", &deadline));
  EXPECT_EQ(deadline, 42u);
  EXPECT_FALSE(m.ok());
  EXPECT_NE(m.error().find("--deadline-ms"), std::string::npos);
  EXPECT_NE(m.error().find("negative values are not accepted"),
            std::string::npos)
      << m.error();

  std::string garbage_arg = "--deadline-ms=-x";
  ArgMatcher m2(garbage_arg);
  EXPECT_TRUE(m2.SizeValue("--deadline-ms", &deadline));
  EXPECT_NE(m2.error().find("expected a non-negative integer"),
            std::string::npos)
      << m2.error();
}

TEST(ArgMatcherTest, BoundedSizeValueEnforcesRange) {
  size_t workers = 7;
  std::string ok_arg = "--workers=4";
  ArgMatcher m(ok_arg);
  EXPECT_TRUE(m.BoundedSizeValue("--workers", &workers, 1, 1024));
  EXPECT_EQ(workers, 4u);
  EXPECT_TRUE(m.ok());

  std::string zero_arg = "--workers=0";
  ArgMatcher m2(zero_arg);
  EXPECT_TRUE(m2.BoundedSizeValue("--workers", &workers, 1, 1024));
  EXPECT_EQ(workers, 4u) << "out-of-range must not clobber the output";
  EXPECT_FALSE(m2.ok());
  EXPECT_NE(m2.error().find("must be between 1 and 1024"), std::string::npos)
      << m2.error();

  std::string big_arg = "--workers=4096";
  ArgMatcher m3(big_arg);
  EXPECT_TRUE(m3.BoundedSizeValue("--workers", &workers, 1, 1024));
  EXPECT_FALSE(m3.ok());
}

TEST(ArgMatcherTest, ScaledSizeValueRejectsWrappingProducts) {
  // Regression: the CLI used to compute `mb * 1024 * 1024` unchecked, so
  // a huge --memory-budget-mb silently wrapped to a tiny byte budget and
  // the run stopped immediately with kMemoryBudget. The scaled matcher
  // must reject any product that does not fit 64 bits.
  constexpr size_t kMiB = size_t{1024} * 1024;
  size_t budget = 42;
  std::string ok_arg = "--memory-budget-mb=64";
  ArgMatcher m(ok_arg);
  EXPECT_TRUE(m.ScaledSizeValue("--memory-budget-mb", &budget, kMiB));
  EXPECT_EQ(budget, 64u * kMiB);
  EXPECT_TRUE(m.ok());

  // 2^44 MiB = 2^64 bytes: wraps to exactly 0 under the old arithmetic,
  // i.e. "unlimited" misread as "stop immediately" (or vice versa).
  std::string wrap_arg = "--memory-budget-mb=17592186044416";
  ArgMatcher m2(wrap_arg);
  EXPECT_TRUE(m2.ScaledSizeValue("--memory-budget-mb", &budget, kMiB));
  EXPECT_EQ(budget, 64u * kMiB) << "wrapping product must not clobber";
  EXPECT_FALSE(m2.ok());
  EXPECT_NE(m2.error().find("out of range"), std::string::npos) << m2.error();

  // Values that are themselves unparseable keep their specific messages.
  std::string neg_arg = "--memory-budget-mb=-5";
  ArgMatcher m3(neg_arg);
  EXPECT_TRUE(m3.ScaledSizeValue("--memory-budget-mb", &budget, kMiB));
  EXPECT_NE(m3.error().find("negative values are not accepted"),
            std::string::npos)
      << m3.error();
}

TEST(ChaseOptionsValidateTest, MessagesLeadWithNestedFieldPath) {
  // Regression: the HTTP surface (src/service/wire.cc) lifts the leading
  // dotted field path out of a Validate() message into its structured 400
  // payload ({"path": "options.preflight.auto_variant", ...}), so every
  // message must open with the full nested group path, not the bare field
  // name.
  ChaseOptions unresolved_auto;
  unresolved_auto.preflight.auto_variant = true;
  Status s = unresolved_auto.Validate();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.message().rfind("preflight.auto_variant ", 0), 0u)
      << s.message();
}

TEST(ArgMatcherTest, DoesNotMatchUnrelatedTokens) {
  size_t steps = 0;
  bool hit = false;
  std::string value;
  std::string arg = "program.twc";
  ArgMatcher m(arg);
  EXPECT_FALSE(m.Flag("--trace", &hit));
  EXPECT_FALSE(m.Value("--variant", &value));
  EXPECT_FALSE(m.SizeValue("--max-steps", &steps));
  EXPECT_TRUE(m.ok());
}

}  // namespace
}  // namespace twchase
