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

#include <string>

namespace compdiff::core
{

/**
 * The filter applied to program output before hashing: the built-in
 * timestamp filter, when enabled.
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
     * `\[ts:[0-9]+\]` replaced by "".
     */
    static OutputNormalizer withDefaultFilters();

    /** Apply the filter. */
    std::string normalize(std::string output) const;

  private:
    bool stripTimestamps_ = false;
};

} // namespace compdiff::core
