/**
 * @file
 * Unit tests for the argument parser.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "common/logging.hpp"

using dhl::ArgParser;

namespace {

/** Run the parser over a literal argv. */
bool
parse(ArgParser &args, std::vector<const char *> argv,
      std::ostream &out)
{
    argv.insert(argv.begin(), "prog");
    return args.parse(static_cast<int>(argv.size()), argv.data(), out);
}

} // namespace

TEST(ArgParserTest, OptionsWithDefaults)
{
    ArgParser args("prog", "test");
    args.addOption("speed", "m/s", "200");
    std::ostringstream os;
    EXPECT_TRUE(parse(args, {}, os));
    EXPECT_EQ(args.get("speed"), "200");
    EXPECT_DOUBLE_EQ(args.getDouble("speed"), 200.0);
    EXPECT_FALSE(args.provided("speed"));
}

TEST(ArgParserTest, SeparateAndInlineValues)
{
    ArgParser args("prog", "test");
    args.addOption("speed", "m/s", "200");
    args.addOption("length", "m", "500");
    std::ostringstream os;
    EXPECT_TRUE(parse(args, {"--speed", "300", "--length=1000"}, os));
    EXPECT_DOUBLE_EQ(args.getDouble("speed"), 300.0);
    EXPECT_EQ(args.getInt("length"), 1000);
    EXPECT_TRUE(args.provided("speed"));
}

TEST(ArgParserTest, Switches)
{
    ArgParser args("prog", "test");
    args.addSwitch("pipelined", "overlap");
    std::ostringstream os;
    EXPECT_TRUE(parse(args, {"--pipelined"}, os));
    EXPECT_TRUE(args.getSwitch("pipelined"));

    ArgParser args2("prog", "test");
    args2.addSwitch("pipelined", "overlap");
    EXPECT_TRUE(parse(args2, {}, os));
    EXPECT_FALSE(args2.getSwitch("pipelined"));
}

TEST(ArgParserTest, Positionals)
{
    ArgParser args("prog", "test");
    args.addPositional("command", "what to do");
    args.addPositional("target", "optional target", false);
    std::ostringstream os;
    EXPECT_TRUE(parse(args, {"bulk"}, os));
    EXPECT_EQ(args.positional("command"), "bulk");
    EXPECT_EQ(args.positional("target"), "");
}

TEST(ArgParserTest, HelpShortCircuits)
{
    ArgParser args("prog", "does things");
    args.addOption("speed", "m/s", "200");
    args.addSwitch("fast", "go fast");
    args.addPositional("cmd", "command");
    std::ostringstream os;
    EXPECT_FALSE(parse(args, {"--help"}, os));
    const std::string help = os.str();
    EXPECT_NE(help.find("does things"), std::string::npos);
    EXPECT_NE(help.find("--speed"), std::string::npos);
    EXPECT_NE(help.find("default: 200"), std::string::npos);
    EXPECT_NE(help.find("--fast"), std::string::npos);
    EXPECT_NE(help.find("<cmd>"), std::string::npos);
}

TEST(ArgParserTest, Errors)
{
    std::ostringstream os;
    {
        ArgParser args("prog", "t");
        EXPECT_THROW(parse(args, {"--unknown"}, os), dhl::FatalError);
    }
    {
        ArgParser args("prog", "t");
        args.addOption("speed", "m/s");
        EXPECT_THROW(parse(args, {"--speed"}, os), dhl::FatalError);
    }
    {
        ArgParser args("prog", "t");
        args.addSwitch("fast", "f");
        EXPECT_THROW(parse(args, {"--fast=1"}, os), dhl::FatalError);
    }
    {
        ArgParser args("prog", "t");
        EXPECT_THROW(parse(args, {"stray"}, os), dhl::FatalError);
    }
    {
        ArgParser args("prog", "t");
        args.addPositional("cmd", "c");
        EXPECT_THROW(parse(args, {}, os), dhl::FatalError);
    }
    {
        ArgParser args("prog", "t");
        args.addOption("n", "number", "abc");
        EXPECT_TRUE(parse(args, {}, os));
        EXPECT_THROW(args.getDouble("n"), dhl::FatalError);
        EXPECT_THROW(args.getInt("n"), dhl::FatalError);
        EXPECT_THROW(args.get("missing"), dhl::FatalError);
        EXPECT_THROW(args.getSwitch("n"), dhl::FatalError);
    }
    {
        ArgParser args("prog", "t");
        args.addOption("x", "dup");
        EXPECT_THROW(args.addOption("x", "again"), dhl::FatalError);
        EXPECT_THROW(args.addSwitch("x", "again"), dhl::FatalError);
    }
}

TEST(ArgParserTest, RejectsNonFiniteDoubles)
{
    for (const char *bad : {"nan", "inf", "-inf", "1e400", "-1e400"}) {
        ArgParser args("prog", "t");
        args.addOption("petabytes", "PB", "1");
        std::ostringstream os;
        EXPECT_TRUE(parse(args, {"--petabytes", bad}, os));
        try {
            args.getDouble("petabytes");
            ADD_FAILURE() << "accepted " << bad;
        } catch (const dhl::FatalError &e) {
            EXPECT_EQ(std::string(e.what()),
                      std::string("--petabytes expects a finite number, "
                                  "got '") + bad + "'");
        }
    }
    // Finite extremes still parse.
    ArgParser args("prog", "t");
    args.addOption("x", "x", "0");
    std::ostringstream os;
    EXPECT_TRUE(parse(args, {"--x", "1.7e308"}, os));
    EXPECT_DOUBLE_EQ(args.getDouble("x"), 1.7e308);
}

TEST(ArgParserTest, IntegerParsing)
{
    ArgParser args("prog", "t");
    args.addOption("count", "n", "0");
    std::ostringstream os;
    EXPECT_TRUE(parse(args, {"--count", "42"}, os));
    EXPECT_EQ(args.getInt("count"), 42);
}

TEST(ArgParserTest, RejectsOutOfRangeIntegers)
{
    // strtol clamps these to LONG_MAX/LONG_MIN instead of failing.
    for (const char *v : {"99999999999999999999", "-99999999999999999999"}) {
        ArgParser args("prog", "t");
        args.addOption("count", "a count", "0");
        std::ostringstream os;
        ASSERT_TRUE(parse(args, {"--count", v}, os));
        try {
            (void)args.getInt("count");
            ADD_FAILURE() << v << " was accepted";
        } catch (const dhl::FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("--count is out of range"),
                      std::string::npos)
                << e.what();
        }
    }
    // The edges of long still parse.
    ArgParser args("prog", "t");
    args.addOption("count", "a count", "0");
    std::ostringstream os;
    ASSERT_TRUE(parse(args, {"--count", "9223372036854775807"}, os));
    EXPECT_EQ(args.getInt("count"), 9223372036854775807L);
}
