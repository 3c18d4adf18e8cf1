#include "support/flags.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>

namespace compdiff::support
{

namespace
{

/** Help text wraps at kWidth columns and starts at kHelpColumn. */
constexpr std::size_t kWidth = 72;
constexpr std::size_t kHelpColumn = 24;

/** `words` wrapped from column `indent`, later lines indented to it. */
std::string
wrap(const std::string &words, std::size_t indent)
{
    std::istringstream in(words);
    std::string out, word;
    std::size_t column = indent;
    while (in >> word) {
        if (column > indent && column + 1 + word.size() > kWidth) {
            out += "\n" + std::string(indent, ' ');
            column = indent;
        } else if (column > indent) {
            out += ' ';
            column++;
        }
        out += word;
        column += word.size();
    }
    return out;
}

std::string
spelling(const Flag &flag)
{
    if (flag.form == Flag::Form::Switch)
        return flag.name;
    if (flag.form == Flag::Form::Value)
        return flag.name + "=" + flag.meta;
    return flag.name + "[=" + flag.meta + "]";
}

/** Store `text` in the flag's field; false when it is malformed. */
bool
store(const Flag &flag, const std::string &text)
{
    if (auto *field = std::get_if<std::uint64_t *>(&flag.field)) {
        const auto parsed = parseUnsigned(text, flag.max);
        if (parsed)
            **field = *parsed;
        return parsed.has_value();
    }
    if (auto *field = std::get_if<double *>(&flag.field)) {
        const auto parsed = parseSeconds(text);
        if (parsed)
            **field = *parsed;
        return parsed.has_value();
    }
    const auto &words = flag.choices;
    if (!words.empty() &&
        std::find(words.begin(), words.end(), text) == words.end())
        return false;
    *std::get<std::string *>(flag.field) = text;
    return true;
}

/** What a malformed value of `flag` should have been. */
std::string
expected(const Flag &flag)
{
    if (std::holds_alternative<double *>(flag.field))
        return "a non-negative number of seconds";
    if (!std::holds_alternative<std::uint64_t *>(flag.field)) {
        std::string words;
        for (const auto &word : flag.choices)
            words += (words.empty() ? "" : ", ") + word;
        return "one of " + words;
    }
    if (flag.max == kNoCeiling)
        return "an unsigned integer";
    return "an unsigned integer no larger than " +
           std::to_string(flag.max);
}

} // namespace

std::optional<std::uint64_t>
parseUnsigned(std::string_view text, std::uint64_t max)
{
    std::uint64_t value = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || ptr != end ||
        value > max)
        return std::nullopt;
    return value;
}

std::optional<double>
parseSeconds(std::string_view text)
{
    double value = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value,
                                           std::chars_format::fixed);
    if (text.empty() || text[0] == '-' || ec != std::errc() ||
        ptr != end || !std::isfinite(value))
        return std::nullopt;
    return value;
}

FlagTable::FlagTable(std::string synopsis, std::size_t maxPositional,
                     std::string footer)
    : synopsis_(std::move(synopsis)), maxPositional_(maxPositional),
      footer_(std::move(footer))
{
}

Flag &
FlagTable::add(std::string name, Flag::Form form, std::string meta,
               std::string help, Flag::Field field)
{
    Flag &flag = flags_.emplace_back();
    flag.name = std::move(name);
    flag.form = form;
    flag.meta = std::move(meta);
    flag.help = std::move(help);
    flag.field = field;
    return flag;
}

void
FlagTable::flag(std::string name, bool *field, std::string help)
{
    add(std::move(name), Flag::Form::Switch, "", std::move(help),
        field);
}

void
FlagTable::value(std::string name, std::string meta, Flag::Field field,
                 std::string help, std::uint64_t max)
{
    Flag &flag = add(std::move(name), Flag::Form::Value,
                     std::move(meta), std::move(help), field);
    flag.max = max;
    if (max != kNoCeiling)
        flag.help += " (at most " + std::to_string(max) + ")";
}

void
FlagTable::choice(std::string name, std::vector<std::string> choices,
                  std::string *field, std::string help)
{
    std::string meta;
    for (const auto &choice : choices)
        meta += (meta.empty() ? "" : "|") + choice;
    Flag &flag = add(std::move(name), Flag::Form::Value,
                     std::move(meta), std::move(help), field);
    flag.choices = std::move(choices);
}

void
FlagTable::optional(std::string name, std::string meta, bool *given,
                    Flag::Field field, std::string help)
{
    Flag &flag = add(std::move(name), Flag::Form::OptionalValue,
                     std::move(meta), std::move(help), field);
    flag.given = given;
}

FlagTable::Parsed
FlagTable::parse(int argc, const char *const *argv) const
{
    Parsed parsed;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg == "--help") {
            parsed.help = true;
            return parsed;
        }
        if (arg.size() < 2 || arg[0] != '-') {
            if (parsed.positional.size() == maxPositional_)
                throw UsageError("unexpected argument " + arg);
            parsed.positional.push_back(arg);
            continue;
        }
        const std::size_t eq = arg.find('=');
        const Flag *flag = nullptr;
        for (const Flag &candidate : flags_) {
            if (candidate.name == arg.substr(0, eq))
                flag = &candidate;
        }
        if (!flag)
            throw UsageError("unknown option " + arg + "\n\n" +
                             usage());
        const bool has_value = eq != std::string::npos;
        if (flag->form == Flag::Form::Switch && has_value)
            throw UsageError(flag->name + " takes no value");
        if (flag->form == Flag::Form::Value && !has_value)
            throw UsageError(flag->name + " needs a value: " +
                             spelling(*flag));
        if (flag->form == Flag::Form::Switch)
            *std::get<bool *>(flag->field) = true;
        if (flag->given)
            *flag->given = true;
        if (has_value && !store(*flag, arg.substr(eq + 1)))
            throw UsageError(arg + ": expected " + expected(*flag));
    }
    return parsed;
}

std::string
FlagTable::usage() const
{
    std::string out = "usage: " + synopsis_ + "\n\n";
    const auto line = [&out](const std::string &spelled,
                             const std::string &help) {
        std::string left = "  " + spelled;
        left += left.size() < kHelpColumn
                    ? std::string(kHelpColumn - left.size(), ' ')
                    : "\n" + std::string(kHelpColumn, ' ');
        out += left + wrap(help, kHelpColumn) + "\n";
    };
    for (const auto &flag : flags_)
        line(spelling(flag), flag.help);
    line("--help", "show this text");
    if (!footer_.empty())
        out += "\n" + wrap(footer_, 0) + "\n";
    return out;
}

} // namespace compdiff::support
