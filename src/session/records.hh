#pragma once

/**
 * @file
 * Session-level record types shared across layers.
 *
 * Header-only on purpose: reduce::reduceRecords consumes
 * DivergenceRecords without linking against compdiff_session (which
 * itself links compdiff_reduce — a .cc dependency here would be a
 * cycle). The types carry plain data only.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "support/bytes.hh"

namespace compdiff::session
{

/**
 * One unique divergence a campaign surfaced, in the portable form
 * the session persists and the triage/reduction layers consume:
 * the witness input plus the evidence needed to dedup (signature),
 * to triage against planted bugs (probes), and to display (the
 * per-implementation output hash vector). The heavyweight
 * core::DiffResult is *not* carried — consumers re-derive it by
 * re-running the witness, which is deterministic.
 */
struct DivergenceRecord
{
    /** The fuzzer's triage signature (fuzz::FoundDiff::signature). */
    std::uint64_t signature = 0;
    /** The divergence-triggering input. */
    support::Bytes input;
    /** Shard-local execution index the divergence was found at. */
    std::uint64_t execIndex = 0;
    /** Ground-truth probes the witness fired on B_fuzz (un-deduped,
     *  in firing order — targets-level triage keys on these). */
    std::vector<int> probes;
    /** Per-implementation output hashes on the witness. */
    std::vector<std::uint64_t> hashVector;
    /** Second-tier semantic key (fuzz::FoundDiff::semanticKey);
     *  0 when the journal predates semantic dedup. */
    std::uint64_t semanticKey = 0;
};

/**
 * Post-campaign triage knobs — the single carrier for "what happens
 * to what the campaign found". FuzzOptions holds no copies of these
 * fields; every campaign front end hands a TriageOptions to the
 * session (or to reduce::reduceRecords directly).
 */
struct TriageOptions
{
    /** Run the reduction pipeline over every unique divergence. */
    bool reduceFound = false;
    /** When non-empty, write one report bundle per divergence under
     *  this directory (reduce::writeReport layout). */
    std::string reportsDir;
    /** Oracle-candidate budget per reduced divergence. */
    std::uint64_t candidateBudget = 4096;
};

} // namespace compdiff::session
