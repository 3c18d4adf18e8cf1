/**
 * @file
 * The declarative flag table (support/flags.hh) and the campaign
 * flag group the front ends register (examples/frontend.hh): every
 * registered flag appears in the generated help and parses, and
 * malformed values, unknown flags and stray positional arguments are
 * usage errors rather than silent zeros.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "frontend.hh"
#include "support/flags.hh"

namespace
{

using namespace compdiff;
using support::Flag;
using support::FlagTable;
using support::UsageError;

FlagTable::Parsed
parseArgs(const FlagTable &table, std::vector<std::string> args)
{
    args.insert(args.begin(), "prog");
    std::vector<const char *> argv;
    for (const auto &arg : args)
        argv.push_back(arg.c_str());
    return table.parse(static_cast<int>(argv.size()), argv.data());
}

/** A well-formed value for `flag`. */
std::string
sampleValue(const Flag &flag)
{
    if (!flag.choices.empty())
        return flag.choices.back();
    if (std::holds_alternative<std::uint64_t *>(flag.field))
        return std::to_string(std::min<std::uint64_t>(flag.max, 7));
    if (std::holds_alternative<double *>(flag.field))
        return "0.5";
    return "some-value";
}

/** Every flag of `table` is in its help text and parses in each of
 *  its spellings. */
void
expectEveryFlagDocumentedAndParsable(const FlagTable &table)
{
    const std::string usage = table.usage();
    EXPECT_NE(usage.find("--help"), std::string::npos);
    ASSERT_FALSE(table.flags().empty());
    for (const Flag &flag : table.flags()) {
        EXPECT_NE(usage.find("  " + flag.name), std::string::npos)
            << flag.name;
        std::vector<std::vector<std::string>> spellings;
        if (flag.form != Flag::Form::Value)
            spellings.push_back({flag.name});
        if (flag.form != Flag::Form::Switch)
            spellings.push_back({flag.name + "=" + sampleValue(flag)});
        for (const auto &args : spellings) {
            EXPECT_NO_THROW(parseArgs(table, args)) << args[0];
        }
    }
}

struct Fields
{
    bool quiet = false;
    std::string name;
    std::string mode = "a";
    std::uint64_t count = 3;
    std::uint64_t jobs = 1;
    double secs = 1.0;
    bool fuzz = false;
    std::uint64_t execs = 100;
    bool watch = false;
    double every = 2.0;
};

FlagTable
makeTable(Fields &f)
{
    FlagTable table("prog [options] [file]", 1, "A footer line.");
    table.flag("--quiet", &f.quiet, "a switch");
    table.value("--name", "TEXT", &f.name, "any text");
    table.choice("--mode", {"a", "b"}, &f.mode, "one of two words");
    table.value("--count", "N", &f.count, "an unbounded count");
    table.value("--jobs", "N", &f.jobs, "a bounded count", 256);
    table.value("--secs", "S", &f.secs, "seconds");
    table.optional("--fuzz", "N", &f.fuzz, &f.execs,
                   "an optional count");
    table.optional("--watch", "S", &f.watch, &f.every,
                   "optional seconds");
    return table;
}

TEST(FlagTable, EveryFlagIsInHelpAndParses)
{
    Fields fields;
    const FlagTable table = makeTable(fields);
    expectEveryFlagDocumentedAndParsable(table);
    const std::string usage = table.usage();
    EXPECT_EQ(usage.rfind("usage: prog [options] [file]\n", 0), 0u);
    EXPECT_NE(usage.find("--fuzz[=N]"), std::string::npos);
    EXPECT_NE(usage.find("--mode=a|b"), std::string::npos);
    EXPECT_NE(usage.find("(at most 256)"), std::string::npos);
    EXPECT_NE(usage.find("A footer line."), std::string::npos);
}

TEST(FlagTable, CampaignGroupFlagsAreInHelpAndParse)
{
    // compdiff_fleet registers the shared group; compdiff_cli adds
    // the single-process flags on top.
    frontend::CampaignFlags shared;
    FlagTable fleet("fleet", 1);
    shared.addFlags(fleet);
    expectEveryFlagDocumentedAndParsable(fleet);

    frontend::CampaignFlags local;
    FlagTable cli("cli", 2);
    local.addFlags(cli);
    local.addProcessFlags(cli);
    expectEveryFlagDocumentedAndParsable(cli);
    EXPECT_EQ(cli.flags().size(), 21u);
}

TEST(FlagTable, FillsFieldsAndKeepsDefaults)
{
    Fields f;
    const FlagTable table = makeTable(f);
    const auto parsed = parseArgs(
        table, {"--quiet", "--name=x=y", "--mode=b", "--count=0",
                "--jobs=256", "--secs=0.25", "--fuzz", "file"});
    EXPECT_FALSE(parsed.help);
    EXPECT_EQ(parsed.positional, std::vector<std::string>{"file"});
    EXPECT_TRUE(f.quiet);
    EXPECT_EQ(f.name, "x=y");
    EXPECT_EQ(f.mode, "b");
    EXPECT_EQ(f.count, 0u);
    EXPECT_EQ(f.jobs, 256u);
    EXPECT_EQ(f.secs, 0.25);
    EXPECT_TRUE(f.fuzz);
    EXPECT_EQ(f.execs, 100u); // bare --fuzz keeps the default
    EXPECT_FALSE(f.watch);

    parseArgs(table, {"--fuzz=18446744073709551615", "--watch=3"});
    EXPECT_EQ(f.execs, 18446744073709551615u);
    EXPECT_TRUE(f.watch);
    EXPECT_EQ(f.every, 3.0);
    EXPECT_TRUE(parseArgs(table, {"--help", "--bogus"}).help);
}

TEST(FlagTable, RejectsMalformedNumbers)
{
    Fields f;
    const FlagTable table = makeTable(f);
    for (const char *bad :
         {"-1", "abc", "12x", "18446744073709551616", "", " 1", "+1",
          "0x10", "1.5"}) {
        for (const char *name : {"--count", "--jobs", "--fuzz"}) {
            const std::string arg = std::string(name) + "=" + bad;
            EXPECT_THROW(parseArgs(table, {arg}), UsageError) << arg;
        }
    }
    EXPECT_THROW(parseArgs(table, {"--jobs=257"}), UsageError);
    for (const char *bad :
         {"-1", "-0", "abc", "12x", "", "inf", "nan", "1e999"}) {
        for (const char *name : {"--secs", "--watch"}) {
            const std::string arg = std::string(name) + "=" + bad;
            EXPECT_THROW(parseArgs(table, {arg}), UsageError) << arg;
        }
    }
    // A rejected value leaves the field as it was.
    EXPECT_EQ(f.count, 3u);
    EXPECT_EQ(f.jobs, 1u);
    EXPECT_EQ(f.execs, 100u);
    EXPECT_EQ(f.secs, 1.0);
    try {
        parseArgs(table, {"--jobs=-1"});
        FAIL() << "--jobs=-1 parsed";
    } catch (const UsageError &error) {
        EXPECT_STREQ(error.what(), "--jobs=-1: expected an unsigned "
                                   "integer no larger than 256");
    }
}

TEST(FlagTable, RejectsUnknownFlagsFormsAndStrayArguments)
{
    Fields f;
    const FlagTable table = makeTable(f);
    try {
        parseArgs(table, {"--bogus"});
        FAIL() << "--bogus parsed";
    } catch (const UsageError &error) {
        const std::string what = error.what();
        EXPECT_EQ(what.rfind("unknown option --bogus\n\nusage:", 0), 0u);
    }
    EXPECT_THROW(parseArgs(table, {"-x"}), UsageError);
    EXPECT_THROW(parseArgs(table, {"--quiet=1"}), UsageError);
    EXPECT_THROW(parseArgs(table, {"--name"}), UsageError);
    EXPECT_THROW(parseArgs(table, {"--mode=c"}), UsageError);
    EXPECT_THROW(parseArgs(table, {"one", "two"}), UsageError);
}

TEST(FlagTable, CampaignGroupCeilings)
{
    // Checked by parsing alone: no thread is started.
    frontend::CampaignFlags flags;
    FlagTable table("cli", 2);
    flags.addFlags(table);
    for (const char *arg : {"--jobs=257", "--shards=257", "--jobs=-1",
                            "--fuzz=-1", "--fuzz=abc"}) {
        EXPECT_THROW(parseArgs(table, {arg}), UsageError) << arg;
    }
    parseArgs(table, {"--jobs=256", "--shards=256"});
    EXPECT_EQ(flags.jobs, frontend::kMaxParallelism);
    EXPECT_EQ(flags.shards, frontend::kMaxParallelism);
}

TEST(ParseNumbers, WholeStringOnly)
{
    EXPECT_EQ(support::parseUnsigned("0"), 0u);
    EXPECT_EQ(support::parseUnsigned("0042"), 42u);
    EXPECT_EQ(support::parseUnsigned("10", 10), 10u);
    EXPECT_FALSE(support::parseUnsigned("11", 10));
    EXPECT_FALSE(support::parseUnsigned("4 "));
    EXPECT_EQ(support::parseSeconds("0"), 0.0);
    EXPECT_EQ(support::parseSeconds("0.05"), 0.05);
    EXPECT_FALSE(support::parseSeconds("1s"));
}

} // namespace
