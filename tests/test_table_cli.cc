/**
 * @file
 * Tests for the text-table renderer and the CLI flag parser.
 */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "common/cli.hh"
#include "common/table.hh"

namespace diffy
{
namespace
{

TEST(TextTable, RendersHeaderAndRows)
{
    TextTable t("Demo");
    t.setHeader({"Name", "Value"});
    t.addRow({"alpha", "1"});
    t.addRow({"beta", "22"});
    std::string out = t.render();
    EXPECT_NE(out.find("== Demo =="), std::string::npos);
    EXPECT_NE(out.find("Name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
}

TEST(TextTable, AlignsColumns)
{
    TextTable t("T");
    t.setHeader({"A", "B"});
    t.addRow({"longer", "x"});
    std::string out = t.render();
    // Every line containing 'x' must place it at the same column as 'B'.
    auto pos_b = out.find("B");
    auto pos_x = out.find("x");
    ASSERT_NE(pos_b, std::string::npos);
    ASSERT_NE(pos_x, std::string::npos);
    auto col = [&](std::size_t pos) {
        auto nl = out.rfind('\n', pos);
        return nl == std::string::npos ? pos : pos - nl - 1;
    };
    EXPECT_EQ(col(pos_b), col(pos_x));
}

TEST(TextTable, NumberFormatters)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::factor(7.1, 1), "7.1x");
    EXPECT_EQ(TextTable::percent(0.55, 0), "55%");
}

TEST(CliArgs, ParsesSpaceAndEqualsForms)
{
    const char *argv[] = {"prog", "--crop", "64", "--mem=HBM2",
                          "--flag"};
    CliArgs args(5, argv);
    EXPECT_EQ(args.getInt("crop", 0), 64);
    EXPECT_EQ(args.getString("mem", ""), "HBM2");
    EXPECT_TRUE(args.getBool("flag", false));
    EXPECT_TRUE(args.has("crop"));
    EXPECT_FALSE(args.has("missing"));
}

TEST(CliArgs, EqualsFormMatchesSpaceFormEverywhere)
{
    // Serving configs lean on --flag=value; it must behave exactly
    // like --flag value across every accessor.
    const char *eq[] = {"prog", "--streams=8",     "--queue-cap=16",
                        "--motion=jitter", "--rate=2.5", "--offered=1,2,4"};
    const char *sp[] = {"prog",    "--streams", "8",      "--queue-cap",
                        "16",      "--motion",  "jitter", "--rate",
                        "2.5",     "--offered", "1,2,4"};
    CliArgs a(6, eq);
    CliArgs b(11, sp);
    EXPECT_EQ(a.getInt("streams", 0), b.getInt("streams", 0));
    EXPECT_EQ(a.getInt("queue-cap", 0), b.getInt("queue-cap", 0));
    EXPECT_EQ(a.getString("motion", ""), b.getString("motion", ""));
    EXPECT_EQ(a.getDouble("rate", 0.0), b.getDouble("rate", 0.0));
    // A value containing '=' splits only at the first one.
    const char *nested[] = {"prog", "--define=key=value"};
    CliArgs c(2, nested);
    EXPECT_EQ(c.getString("define", ""), "key=value");
}

TEST(CliArgs, EqualsFormOnDeclaredBoolFlag)
{
    // A declared bool flag given as --flag=value binds the value
    // instead of consuming the next token.
    const char *argv[] = {"prog", "--verbose=false", "trace.bin"};
    CliArgs args(3, argv, {"verbose"});
    EXPECT_FALSE(args.getBool("verbose", true));
    ASSERT_EQ(args.positionals().size(), 1u);
    EXPECT_EQ(args.positionals()[0], "trace.bin");
}

TEST(CliArgs, EqualsFormWithEmptyValue)
{
    // "--cache=" explicitly clears a path-valued flag (the benches'
    // idiom for disabling the trace cache).
    const char *argv[] = {"prog", "--cache="};
    CliArgs args(2, argv);
    EXPECT_TRUE(args.has("cache"));
    EXPECT_EQ(args.getString("cache", "default"), "");
}

TEST(CliArgs, EqualsFormRejectsMalformedNumbers)
{
    const char *argv[] = {"prog", "--threads=4x"};
    CliArgs args(2, argv);
    EXPECT_THROW(args.getInt("threads", 1), std::invalid_argument);
}

TEST(CliArgs, FallbacksWhenAbsent)
{
    const char *argv[] = {"prog"};
    CliArgs args(1, argv);
    EXPECT_EQ(args.getInt("crop", 48), 48);
    EXPECT_EQ(args.getString("mem", "DDR4-3200"), "DDR4-3200");
    EXPECT_DOUBLE_EQ(args.getDouble("x", 2.5), 2.5);
    EXPECT_FALSE(args.getBool("flag", false));
}

TEST(CliArgs, DoubleValues)
{
    const char *argv[] = {"prog", "--ratio", "0.75"};
    CliArgs args(3, argv);
    EXPECT_DOUBLE_EQ(args.getDouble("ratio", 0.0), 0.75);
}

TEST(CliArgs, FlagFollowedByFlagIsBoolean)
{
    const char *argv[] = {"prog", "--a", "--b", "7"};
    CliArgs args(4, argv);
    EXPECT_TRUE(args.getBool("a", false));
    EXPECT_EQ(args.getInt("b", 0), 7);
}

TEST(CliArgs, DeclaredBoolFlagDoesNotSwallowPositional)
{
    // The historical bug: "--verbose trace.bin" bound
    // verbose="trace.bin", so getBool returned false and the
    // positional was lost.
    const char *argv[] = {"prog", "--verbose", "trace.bin"};
    CliArgs args(3, argv, {"verbose"});
    EXPECT_TRUE(args.getBool("verbose", false));
    ASSERT_EQ(args.positionals().size(), 1u);
    EXPECT_EQ(args.positionals()[0], "trace.bin");
}

TEST(CliArgs, PositionalsCollectedAroundValueFlags)
{
    const char *argv[] = {"prog", "input.bin", "--crop", "64",
                          "output.bin"};
    CliArgs args(5, argv);
    EXPECT_EQ(args.getInt("crop", 0), 64);
    ASSERT_EQ(args.positionals().size(), 2u);
    EXPECT_EQ(args.positionals()[0], "input.bin");
    EXPECT_EQ(args.positionals()[1], "output.bin");
}

TEST(CliArgs, UndeclaredFlagStillConsumesValueToken)
{
    // Without a declaration the parser keeps the historical greedy
    // binding: the next non-flag token is the value.
    const char *argv[] = {"prog", "--mode", "fast"};
    CliArgs args(3, argv);
    EXPECT_EQ(args.getString("mode", ""), "fast");
    EXPECT_TRUE(args.positionals().empty());
}

TEST(CliArgs, GetIntRejectsMalformedValues)
{
    const char *argv[] = {"prog", "--threads=abc", "--crop", "12x",
                          "--good", "7"};
    CliArgs args(6, argv);
    // atoll would have silently produced 0 / 12 here.
    EXPECT_THROW(args.getInt("threads", 1), std::invalid_argument);
    EXPECT_THROW(args.getInt("crop", 1), std::invalid_argument);
    EXPECT_EQ(args.getInt("good", 0), 7);
    try {
        args.getInt("threads", 1);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("threads"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("abc"), std::string::npos);
    }
}

TEST(CliArgs, GetDoubleRejectsMalformedValues)
{
    const char *argv[] = {"prog", "--ratio=0.5x", "--sigma", "high",
                          "--ok", "2.25"};
    CliArgs args(6, argv);
    EXPECT_THROW(args.getDouble("ratio", 0.0), std::invalid_argument);
    EXPECT_THROW(args.getDouble("sigma", 0.0), std::invalid_argument);
    EXPECT_DOUBLE_EQ(args.getDouble("ok", 0.0), 2.25);
}

TEST(CliArgs, BareNumericFlagReadAsIntThrows)
{
    // A trailing bare flag stores "true"; asking for an integer must
    // fail loudly, not run a 0-thread sweep.
    const char *argv[] = {"prog", "--threads"};
    CliArgs args(2, argv);
    EXPECT_THROW(args.getInt("threads", 1), std::invalid_argument);
}

TEST(CliArgs, UndeclaredFlagErrorNamesTheFlagAndANearMiss)
{
    const std::set<std::string> declared = {"rounds", "streams", "help"};
    const char *ok[] = {"prog", "--rounds", "3", "--streams=2"};
    EXPECT_EQ(CliArgs(4, ok).undeclaredFlagError(declared), "");

    // Within edit distance 2 of a declared flag: hint at it.
    const char *typo[] = {"prog", "--round", "3"};
    EXPECT_EQ(CliArgs(3, typo).undeclaredFlagError(declared),
              "unknown flag --round (did you mean --rounds?)");
    const char *swapped[] = {"prog", "--stremas=2"};
    EXPECT_EQ(CliArgs(2, swapped).undeclaredFlagError(declared),
              "unknown flag --stremas (did you mean --streams?)");

    // Nothing close: no hint.
    const char *bogus[] = {"prog", "--rounds", "3", "--bogus", "3"};
    EXPECT_EQ(CliArgs(5, bogus).undeclaredFlagError(declared),
              "unknown flag --bogus");
}

} // namespace
} // namespace diffy
