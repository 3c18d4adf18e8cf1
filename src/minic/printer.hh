#pragma once

/**
 * @file
 * AST pretty-printer: renders an (analyzed or transformed) AST back
 * to readable MiniC-like source. Triage prints and reparses programs
 * (reduction candidates, canonical forms, filed bundles), so parsing
 * printProgram's output yields a program that behaves like the
 * original, and printing that again yields the same text. Each
 * statement header goes on one line, except that a cur_line() call
 * keeps its line offset from its statement, the one thing lowering
 * reads from the layout. The printer is also the lens for debugging
 * the optimization passes.
 */

#include <string>

#include "minic/ast.hh"

namespace compdiff::minic
{

/** Render one expression. */
std::string printExpr(const Expr &expr);

/** Render one statement subtree with indentation. */
std::string printStmt(const Stmt &stmt, int indent = 0);

/** Render one function definition. */
std::string printFunction(const FunctionDecl &func);

/** Render the whole program (globals + functions). */
std::string printProgram(const Program &program);

} // namespace compdiff::minic
