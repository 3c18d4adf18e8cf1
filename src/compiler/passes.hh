#pragma once

/**
 * @file
 * AST-level optimization passes.
 *
 * Each simulated compiler implementation runs a subset of these passes
 * (gated by its Traits). Several of them are *UB-exploiting*: they are
 * only sound under the assumption that the program never executes
 * undefined behavior, which is precisely the license the C standard
 * grants and the mechanism that turns UB into unstable code:
 *
 *  - UbGuardFoldPass rewrites `(a+b) < a` to `b < 0` (signed), the
 *    transform that deletes the overflow guard of the paper's
 *    Listing 1;
 *  - AlwaysTrueIncCmpPass folds `x+1 > x` to 1;
 *  - WidenMulPass computes `long = int*int` chains in 64 bits, the
 *    clang -O1 behavior from the paper's IntError discussion (RQ1);
 *  - DeadStoreElimPass deletes stores to never-read locals together
 *    with their (possibly trapping) pure computations;
 *  - NullDerefExploitPass treats dereferences of known-null pointers
 *    as unreachable and elides them.
 *
 * SeededMiscompilePass contains three deliberate, documented compiler
 * defects used to reproduce the paper's compiler-bug findings (RQ2).
 */

#include <memory>
#include <vector>

#include "compiler/config.hh"
#include "minic/ast.hh"

namespace compdiff::compiler
{

/**
 * Base class of AST transformation passes. Passes mutate a cloned
 * FunctionDecl in place; the original analyzed AST is never touched.
 */
class Pass
{
  public:
    virtual ~Pass() = default;

    /** Short pass name for diagnostics and ablation benches. */
    virtual const char *name() const = 0;

    /** Whether this pass runs under the given traits. */
    virtual bool enabledFor(const Traits &traits) const = 0;

    /** Transform one function. */
    virtual void run(minic::FunctionDecl &func,
                     const Traits &traits) const = 0;
};

/** Constant folding (literal arithmetic, branch folding). */
class ConstFoldPass : public Pass
{
  public:
    const char *name() const override { return "constfold"; }
    bool enabledFor(const Traits &t) const override
    {
        return t.constFold;
    }
    void run(minic::FunctionDecl &func,
             const Traits &traits) const override;
};

/** `(a+b) < a` -> `b < 0` and friends (signed; UB-exploiting). */
class UbGuardFoldPass : public Pass
{
  public:
    const char *name() const override { return "ubguardfold"; }
    bool enabledFor(const Traits &t) const override
    {
        return t.foldUbGuards;
    }
    void run(minic::FunctionDecl &func,
             const Traits &traits) const override;
};

/** `x+1 > x` -> 1 and friends (signed; UB-exploiting). */
class AlwaysTrueIncCmpPass : public Pass
{
  public:
    const char *name() const override { return "alwaystruecmp"; }
    bool enabledFor(const Traits &t) const override
    {
        return t.alwaysTrueIncCmp;
    }
    void run(minic::FunctionDecl &func,
             const Traits &traits) const override;
};

/** Widen 32-bit arithmetic feeding 64-bit contexts (UB-exploiting). */
class WidenMulPass : public Pass
{
  public:
    const char *name() const override { return "widenmul"; }
    bool enabledFor(const Traits &t) const override
    {
        return t.widenMulToLong;
    }
    void run(minic::FunctionDecl &func,
             const Traits &traits) const override;
};

/** Remove stores to never-read locals, including trapping math. */
class DeadStoreElimPass : public Pass
{
  public:
    const char *name() const override { return "deadstore"; }
    bool enabledFor(const Traits &t) const override
    {
        return t.deadStoreElim;
    }
    void run(minic::FunctionDecl &func,
             const Traits &traits) const override;
};

/** Elide loads/stores through pointers proven null (UB-exploiting). */
class NullDerefExploitPass : public Pass
{
  public:
    const char *name() const override { return "nullexploit"; }
    bool enabledFor(const Traits &t) const override
    {
        return t.nullDerefExploit;
    }
    void run(minic::FunctionDecl &func,
             const Traits &traits) const override;
};

/** The three documented seeded miscompilation defects (RQ2). */
class SeededMiscompilePass : public Pass
{
  public:
    const char *name() const override { return "seededbugs"; }
    bool enabledFor(const Traits &t) const override
    {
        return t.bugRemPow2 || t.bugDiv32Shift || t.bugEmptyRange;
    }
    void run(minic::FunctionDecl &func,
             const Traits &traits) const override;
};

/** The standard pass pipeline, in execution order. */
const std::vector<std::unique_ptr<Pass>> &standardPasses();

/**
 * Wrap single-statement if/while/for bodies in blocks so that
 * statement-deleting passes always operate on statement lists. Run
 * once before the pass pipeline.
 */
void normalizeBodies(minic::FunctionDecl &func);

/** Structural equality of two pure expressions (conservative). */
bool pureExprEquals(const minic::Expr &a, const minic::Expr &b);

/** True when evaluating the expression cannot have side effects. */
bool isPureExpr(const minic::Expr &expr);

} // namespace compdiff::compiler
