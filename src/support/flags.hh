#pragma once

/**
 * @file
 * One declarative flag table for every command-line front end. Each
 * entry gives a flag's name, its form (a switch `--x`, a value
 * `--x=V`, or an optional value `--x[=V]`), its help text and the
 * field it fills; the table parses argv, generates `--help` and
 * raises every usage error, so help and parser cannot drift apart.
 *
 * Values parse strictly: an unsigned integer is the whole string of
 * decimal digits and at most the flag's ceiling, seconds are a
 * finite non-negative decimal, a choice is one of its words. A bad
 * value, an unknown flag or a stray positional argument is a
 * UsageError, never a silent zero or default.
 */

#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace compdiff::support
{

/** A command line the table rejects: one line, followed by the usage
 *  text after an unknown option. */
class UsageError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

constexpr std::uint64_t kNoCeiling =
    std::numeric_limits<std::uint64_t>::max();

/** `text` as a whole decimal unsigned integer at most `max`. */
std::optional<std::uint64_t>
parseUnsigned(std::string_view text, std::uint64_t max = kNoCeiling);
/** `text` as a whole finite, non-negative decimal. */
std::optional<double> parseSeconds(std::string_view text);

struct Flag
{
    enum class Form
    {
        Switch,
        Value,
        OptionalValue,
    };
    /** A switch fills a bool; a value fills text, an unsigned
     *  integer or seconds. */
    using Field =
        std::variant<bool *, std::string *, std::uint64_t *, double *>;

    std::string name;
    Form form = Form::Value;
    std::string meta; ///< the value's placeholder ("N")
    std::string help;
    Field field;
    bool *given = nullptr;            ///< set by an optional value
    std::uint64_t max = kNoCeiling;   ///< integer ceiling
    std::vector<std::string> choices; ///< the words text may be
};

class FlagTable
{
  public:
    /** `synopsis` follows "usage: "; `footer` follows the flags. */
    FlagTable(std::string synopsis, std::size_t maxPositional,
              std::string footer = {});

    void flag(std::string name, bool *field, std::string help);
    void value(std::string name, std::string meta, Flag::Field field,
               std::string help, std::uint64_t max = kNoCeiling);
    void choice(std::string name, std::vector<std::string> choices,
                std::string *field, std::string help);
    void optional(std::string name, std::string meta, bool *given,
                  Flag::Field field, std::string help);

    struct Parsed
    {
        std::vector<std::string> positional;
        bool help = false; ///< `--help` was given; parsing stopped
    };
    /** Fill the fields from argv[1..argc); a repeated flag keeps its
     *  last value. @throws UsageError */
    Parsed parse(int argc, const char *const *argv) const;

    std::string usage() const;
    const std::vector<Flag> &flags() const { return flags_; }

  private:
    Flag &add(std::string name, Flag::Form form, std::string meta,
              std::string help, Flag::Field field);

    std::string synopsis_;
    std::size_t maxPositional_;
    std::string footer_;
    std::vector<Flag> flags_;
};

} // namespace compdiff::support
