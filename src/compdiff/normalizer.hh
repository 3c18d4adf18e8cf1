#pragma once

/**
 * @file
 * Output normalization (paper RQ5).
 *
 * Some targets legitimately embed per-run values (timestamps, PIDs)
 * in their output; comparing raw outputs across binaries would flag
 * every such program. CompDiff-AFL++ strips these with regular
 * expressions before checksumming — e.g. the wireshark
 * "10:44:23.405830 [Epan WARNING]" case in the paper. This class is
 * that filter stage.
 */

#include <regex>
#include <string>
#include <vector>

namespace compdiff::core
{

/**
 * The filters applied to program output before hashing: the built-in
 * timestamp filter (when enabled), then every added regex in order.
 */
class OutputNormalizer
{
  public:
    /** No filters: raw output comparison. */
    OutputNormalizer() = default;

    /**
     * The default filter set used by CompDiff-AFL++ in this repo:
     * strips `[ts:<digits>]` timestamps (the time_stamp() builtin's
     * conventional rendering). It runs on every observation, so it is
     * a hand-written scan with the result of the regex
     * `\[ts:[0-9]+\]` replaced by "", and it runs before any pattern
     * added later.
     */
    static OutputNormalizer withDefaultFilters();

    /** Add a filter; every match is replaced with `replacement`. */
    void addPattern(const std::string &regex,
                    const std::string &replacement = "");

    /** Apply all filters in order. */
    std::string normalize(std::string output) const;

  private:
    struct Filter
    {
        std::regex regex;
        std::string replacement;
    };
    bool stripTimestamps_ = false;
    std::vector<Filter> patterns_;
};

} // namespace compdiff::core
