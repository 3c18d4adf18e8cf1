#pragma once

/**
 * @file
 * Witness-program reduction: shrink the MiniC source itself while
 * the divergence signature survives.
 *
 * The reducer works on the AST through the print/reparse round trip
 * the printer tests guarantee: parse the current best source, apply
 * one candidate edit to the tree, pretty-print it, re-run the full
 * frontend (parse + sema) on the printed text, and hand the
 * re-analyzed program to the Oracle. Candidates that no longer parse
 * or type-check (e.g. a pruned function that is still called) are
 * rejected for free, without consuming oracle budget; candidates
 * that change the divergence signature are rejected by the oracle.
 *
 * Edit kinds, tried in order of expected payoff:
 *   - RemoveFunction / RemoveGlobal: drop whole declarations;
 *   - RemoveStmt: delete one statement from a block (or a for-init);
 *   - FoldIfThen / FoldIfElse: replace an `if` by one branch —
 *     dead-branch folding, which also deletes the condition;
 *   - DropElse: keep the `if` but delete its else branch;
 *   - UnwrapLoop: replace a while/for by its body (runs once);
 *   - HoistZero: replace an integer-typed expression by the
 *     constant 0 (expression hoisting to constants).
 *
 * Every accepted edit strictly shrinks (or, for HoistZero on a
 * variable reference, keeps equal and de-eligibilizes) the tree, so
 * the greedy fixpoint terminates. The reduction is deterministic:
 * edits are enumerated in pre-order and the oracle is deterministic.
 */

#include <cstdint>
#include <string>

#include "minic/ast.hh"
#include "reduce/oracle.hh"
#include "support/bytes.hh"

namespace compdiff::reduce
{

/** Statements in a program, blocks excluded (a `{}` is glue, not a
 *  statement of interest; an `if` counts once, not per branch). */
std::size_t countStatements(const minic::Program &program);

/** All AST nodes (statements + expressions), blocks included. */
std::size_t countAstNodes(const minic::Program &program);

/** Outcome of one program reduction. */
struct ProgramReduction
{
    /** Minimized source (pretty-printed canonical form). */
    std::string source;
    std::uint64_t candidatesTried = 0;
    std::uint64_t candidatesAccepted = 0;
    /** Candidates rejected by parse/sema before reaching the
     *  oracle (they cost no oracle budget). */
    std::uint64_t frontendRejected = 0;
    std::size_t stmtsBefore = 0;
    std::size_t stmtsAfter = 0;
    std::size_t nodesBefore = 0;
    std::size_t nodesAfter = 0;
};

/**
 * Reduce `source` against the fixed `input` (typically the already
 * ddmin-reduced witness), preserving the oracle's target signature.
 *
 * @param source A program that parseAndCheck accepts. If it does not,
 *               or its printed form does not parse again, the result
 *               keeps `source` unreduced.
 */
ProgramReduction reduceProgram(Oracle &oracle,
                               const std::string &source,
                               const support::Bytes &input);

} // namespace compdiff::reduce
