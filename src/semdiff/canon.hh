#pragma once

/**
 * @file
 * MiniC canonicalizer: semantic identity for witness programs.
 *
 * Behavior-class signatures (reduce::divergenceSignature) answer
 * "did these programs split the implementation set the same way?",
 * but two syntactically different programs that trigger the same bug
 * still file two `sig-<hex>/` bundles. This module supplies the
 * missing half of the dedup key: a *canonical form* of the program
 * text that is invariant under the refactorings minimized witnesses
 * actually differ by — identifier names, function order, commutative
 * operand order, independent-statement order, and dead code — in the
 * spirit of DiffKemp's refactoring-insensitive equivalence.
 *
 * Canonicalization is a pure source-to-source function built from
 * five passes over the parsed AST, applied in this order:
 *
 *   1. dead-code strip — statements after a terminator (`return`,
 *      `break`, `continue`) in a block are dropped, and functions
 *      unreachable from `main` are removed;
 *   2. function reorder — remaining functions are emitted in
 *      post-order of a DFS over the call graph from `main` (callees
 *      first, `main` last), which is total because step 1 removed
 *      everything unreachable;
 *   3. alpha-rename — functions become `cf<k>` in canonical order
 *      (`main` keeps its name), globals become `cg<k>` in declaration
 *      order, and locals become `cv<k>` in parameter-then-declaration
 *      order, resolved through sema's symbol ids so shadowing cannot
 *      mis-bind; struct and field names are left alone;
 *   4. commutative-operand sort — for `+ * & | ^ == !=` with two
 *      side-effect-free, trap-free, *non-literal* integer operands,
 *      the operands are ordered by their printed form (literals stay
 *      put: the seeded-miscompile passes pattern-match constants on
 *      specific sides, and moving them would change which programs
 *      trigger the bug — see soundness note below);
 *   5. independent-statement sort — maximal runs of adjacent plain
 *      assignments `v = <pure expr>;` to distinct scalar variables,
 *      where no statement reads another's target, are bubble-sorted
 *      by printed form to a fixpoint.
 *
 * Soundness: every pass preserves the program's observable behavior
 * under every implementation in the oracle, *including* the seeded
 * miscompiles (tested against the DiffEngine in test_semdiff.cc).
 * Renames never touch semantics; sema registers every function
 * signature before analyzing bodies, so reordered definitions
 * re-analyze identically; sorted operands are restricted to
 * expressions whose evaluation cannot trap or side-effect, so
 * evaluation order is unobservable; reordered statements are
 * pairwise independent by construction. The one deliberate
 * exception is `cur_line()` — dead-code removal shifts line numbers
 * — which minimized witnesses that *depend* on line values keep out
 * of reach because any line-sensitive divergence pins the dead code
 * via the oracle.
 *
 * Determinism: no pass consults anything outside the program text
 * (no maps ordered by pointer, no hashes of addresses), so
 * canonicalize() is a pure function of the source string and
 * `canon(canon(p)) == canon(p)` (the rename targets are already
 * canonical names, the sorts are at their fixpoints, and dead code
 * is already gone). The fingerprint is a murmurHash64 of the
 * canonical source.
 */

#include <cstdint>
#include <string>

#include "minic/ast.hh"

namespace compdiff::semdiff
{

/** Canonical form of one MiniC program. */
struct CanonicalForm
{
    /** Canonicalized source (pretty-printed, reparseable). */
    std::string source;
    /** murmurHash64 of `source` — the canonical-form hash. */
    std::uint64_t fingerprint = 0;
};

/**
 * Canonicalize a source buffer. The input must parse and type-check;
 * if it does not (or the canonicalized text fails to reparse, which
 * would indicate a pass bug, or compiles to another rodata image under
 * clang-O0, because a dead or reordered string literal moved the bytes
 * that out-of-bounds reads see), the original text is returned
 * verbatim with its own hash — canonicalization degrades to exact-text
 * identity, never to an error.
 */
CanonicalForm canonicalizeSource(const std::string &source);

/** Canonicalize an analyzed program (print + canonicalizeSource). */
CanonicalForm canonicalize(const minic::Program &program);

/**
 * The two-tier dedup key: canonical-form hash x behavior-class
 * signature. Two witnesses merge iff their *minimized* programs
 * canonicalize to the same text AND their divergence signatures
 * (reduce::divergenceSignature — the shape of the behavior-class
 * partition plus exit classes) agree.
 */
struct SemanticKey
{
    std::uint64_t canonHash = 0;
    std::uint64_t behavior = 0;

    /** Single 64-bit key (order-sensitive mix; stable across runs,
     *  platforms, and resume — both inputs are). */
    std::uint64_t combined() const;

    bool operator==(const SemanticKey &) const = default;
};

/** Build the combined key directly from the two halves. */
std::uint64_t semanticKeyOf(std::uint64_t canon_hash,
                            std::uint64_t behavior_signature);

} // namespace compdiff::semdiff
