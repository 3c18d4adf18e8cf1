#include "compdiff/normalizer.hh"

#include <cstring>
#include <string_view>

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace compdiff::core
{

namespace
{

/** Remove every `[ts:<1+ digits>]`, leftmost first and without
 *  overlap, as std::regex_replace does: one pass, in place. */
std::string
stripTimestamps(std::string text)
{
    constexpr std::string_view kOpen = "[ts:";
    std::size_t hit = text.find(kOpen);
    if (hit == std::string::npos)
        return text;
    // Bytes before `out` are final; reading resumes at `in`. Writes
    // stay below `in`, so later finds see the original bytes.
    std::size_t out = hit;
    std::size_t in = hit;
    while (hit != std::string::npos) {
        std::memmove(&text[out], &text[in], hit - in);
        out += hit - in;
        std::size_t end = hit + kOpen.size();
        while (end < text.size() && text[end] >= '0' && text[end] <= '9')
            end++;
        if (end > hit + kOpen.size() && end < text.size() &&
            text[end] == ']') {
            in = end + 1;
        } else {
            // No stamp here: keep the '[' and rescan after it.
            text[out++] = '[';
            in = hit + 1;
        }
        hit = text.find(kOpen, in);
    }
    const std::size_t tail = text.size() - in;
    std::memmove(&text[out], &text[in], tail);
    text.resize(out + tail);
    return text;
}

} // namespace

OutputNormalizer
OutputNormalizer::withDefaultFilters()
{
    OutputNormalizer normalizer;
    normalizer.stripTimestamps_ = true;
    return normalizer;
}

std::string
OutputNormalizer::normalize(std::string output) const
{
    static obs::Counter &calls = obs::counter("normalizer.calls");
    static obs::Counter &bytes_in = obs::counter("normalizer.bytes_in");
    static obs::Counter &bytes_out =
        obs::counter("normalizer.bytes_out");
    obs::Span span("normalize");
    calls.add();
    bytes_in.add(output.size());
    if (stripTimestamps_)
        output = stripTimestamps(std::move(output));
    bytes_out.add(output.size());
    return output;
}

} // namespace compdiff::core
