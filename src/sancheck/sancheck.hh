#pragma once

/**
 * @file
 * The sanitizer-checking oracle (DESIGN.md §14).
 *
 * CompDiff's oracle asks "do implementations diverge?"; this module
 * asks the UBfuzz question instead: given a (program, input) pair
 * whose UB-ness the reference interpreter can *certify*
 * (refinterp::CertifiedRun), does each sanitizer-instrumented
 * implementation report it? The flipped verdict axis surfaces
 * defects in the sanitizers themselves:
 *
 *   - false negative (FN): the reference interpreter certifies a UB
 *     occurrence of a class the sanitizer claims to detect, yet the
 *     sanitized run completes without a matching report;
 *   - false positive (FP): the run is certified UB-free (clean exit,
 *     zero certificates), yet the sanitizer fires.
 *
 * Findings carry deterministic signatures
 * ("san:<impl>:<ubkind>:FN|FP", hashed to the usual 64-bit currency)
 * so they ride the existing dedup → reduce → sig-<hex>/ bundle
 * pipeline unchanged. Classification is a pure function of the
 * certified run and the per-implementation ExecutionResults, which
 * are themselves pure functions of (program, input, nonce) — the
 * same determinism contract every campaign layer already relies on.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compdiff/implementation.hh"
#include "compiler/config.hh"
#include "minic/ast.hh"
#include "refinterp/refinterp.hh"
#include "support/bytes.hh"
#include "vm/result.hh"
#include "vm/vm.hh"

namespace compdiff::sancheck
{

/** Verdict polarity of one finding. */
enum class FindingKind
{
    FalseNegative, ///< certified UB, sanitizer silent
    FalsePositive, ///< certified UB-free, sanitizer fired
};

/** Signature-currency name ("FN" / "FP"). */
const char *findingKindName(FindingKind kind);

/**
 * Does `which` claim to detect UB of class `kind`? A sanitizer is
 * only charged with FNs inside its detection scope — MSan not
 * reporting a signed overflow is by design, not a defect.
 */
bool sanitizerCovers(compiler::Sanitizer which,
                     refinterp::UbKind kind);

/** One classified sanitizer defect observation. */
struct SanFinding
{
    /** The sanitized implementation ("clang-O2+ubsan"). */
    std::string implId;
    /** The UB class at issue (certified for FN, reported for FP). */
    refinterp::UbKind ubKind = refinterp::UbKind::SignedOverflow;
    FindingKind kind = FindingKind::FalseNegative;

    /** Certified UB site (FN only; empty/0 for FP). */
    std::string certFunction;
    std::uint32_t certLine = 0;
    std::string certDetail;

    /** The sanitizer's report (FP only; empty/0 for FN). */
    std::string reportKind;
    std::uint32_t reportLine = 0;

    /** Dedup identity: "san:<impl>:<ubkind>:FN|FP". */
    std::string signature() const;
    /** 64-bit hash of signature(), the campaign dedup currency. */
    std::uint64_t signatureHash() const;
    /** One-line rendering for logs and reports. */
    std::string str() const;
};

/**
 * Classify one sanitized run against a certified reference run.
 * Returns false when the pair yields no finding: budget exhaustion
 * on either side (silence is then not attributable to the detector),
 * a crash of the sanitized run before its verdict, an abort on an
 * unrelated earlier report (the run never reached the certified
 * site), out-of-scope UB classes, matching detection, or an
 * unmapped report kind.
 * Classification consults the *first* certificate (execution order)
 * and the first sanitizer report, mirroring real tools' abort-on-
 * first-report behavior.
 */
bool classifyOne(const refinterp::CertifiedRun &certified,
                 const std::string &impl_id,
                 compiler::Sanitizer sanitizer,
                 const vm::ExecutionResult &sanitized,
                 SanFinding *out);

/**
 * The default sanitizer implementation set: the common fuzzing
 * configs plus the -O2 UBSan build whose seeded check-elision defect
 * (compiler::Traits::bugChkOv32Unsigned) the subsystem exists to
 * catch.
 */
extern const char *const kDefaultImplSpec;

/** core::parseImplementations(kDefaultImplSpec). */
core::ImplementationSet defaultImplementations();

/**
 * Fatal unless every member is a simulated implementation with a
 * sanitizer — the only backends whose reports sancheck can read.
 */
void validateImpls(const core::ImplementationSet &impls);

/** What one sancheck execution observed. */
struct Outcome
{
    refinterp::CertifiedRun certified;
    /** Per-implementation sanitized runs, in implementation order. */
    std::vector<vm::ExecutionResult> sanitized;
    /** Classified findings, implementation order (≤ 1 per impl). */
    std::vector<SanFinding> findings;
};

/**
 * The resident sancheck execution engine: one certifying reference
 * interpreter plus one warm Vm per sanitized implementation,
 * mirroring DiffEngine's forkserver economics. Not thread-safe; the
 * fuzzer keeps one per shard.
 */
class SanCheckOracle
{
  public:
    /**
     * @param program Analyzed program (must outlive the oracle).
     * @param impls   Sanitized implementations (validateImpls).
     * @param limits  Per-execution limits, shared by all members.
     */
    SanCheckOracle(const minic::Program &program,
                   core::ImplementationSet impls,
                   vm::VmLimits limits = {});
    ~SanCheckOracle();

    /** Certify + run every sanitizer + classify, for one input. */
    Outcome runInput(const support::Bytes &input,
                     std::uint64_t nonce = 0);

    const core::ImplementationSet &impls() const { return impls_; }

    /** Stats row ids: "ref" followed by the implementation ids. */
    std::vector<std::string> configIds() const;

  private:
    struct Member
    {
        std::string id;
        compiler::CompilerConfig config;
        std::shared_ptr<const bytecode::Module> module;
        std::unique_ptr<vm::Vm> vm;
    };

    core::ImplementationSet impls_;
    vm::VmLimits limits_;
    std::unique_ptr<refinterp::RefInterpreter> ref_;
    std::vector<Member> members_;
};

/**
 * `sanlab`, the bundled sanitizer-check laboratory program: an
 * input-gated dispatcher whose stations exercise each cell of the
 * FN/FP matrix — the documented MSan print blind spot, both faces of
 * the seeded -O2 UBSan check-elision defect, an OOB hop over ASan's
 * redzone onto a neighboring live object, and agreement stations
 * where certifier and sanitizer concur. Deliberately *not* part of
 * targets::allTargets(): it demonstrates sanitizer defects, not the
 * paper's 78 application bugs.
 */
const char *sanlabSource();

/** Seed inputs steering sanlab into every station. */
std::vector<support::Bytes> sanlabSeeds();

} // namespace compdiff::sancheck
