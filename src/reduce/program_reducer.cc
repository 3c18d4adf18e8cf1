#include "reduce/program_reducer.hh"

#include <memory>
#include <type_traits>
#include <utility>

#include "minic/parser.hh"
#include "minic/printer.hh"
#include "minic/walk.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "support/diagnostics.hh"

namespace compdiff::reduce
{

using namespace minic;

namespace
{

// ---------------------------------------------------------------
// Node counting
// ---------------------------------------------------------------

struct NodeCounts
{
    std::size_t stmts = 0; ///< non-block statements
    std::size_t nodes = 0; ///< every statement + expression
};

NodeCounts
countProgram(const Program &program)
{
    NodeCounts counts;
    const auto count = [&](const auto &node) {
        counts.nodes++;
        if constexpr (std::is_same_v<decltype(node), const Stmt &>)
            counts.stmts += node.kind() != StmtKind::Block;
    };
    for (const auto &func : program.functions)
        walkNodes(*func->body, count);
    for (const auto &global : program.globals)
        if (global->init)
            walkNodes(*global->init, count);
    return counts;
}

// ---------------------------------------------------------------
// Edit application
// ---------------------------------------------------------------

enum class EditKind
{
    RemoveFunction,
    RemoveGlobal,
    RemoveStmt,
    FoldIfThen,
    FoldIfElse,
    DropElse,
    UnwrapLoop,
    HoistZero,
};

constexpr EditKind kEditOrder[] = {
    EditKind::RemoveFunction, EditKind::RemoveGlobal,
    EditKind::RemoveStmt,     EditKind::FoldIfThen,
    EditKind::FoldIfElse,     EditKind::DropElse,
    EditKind::UnwrapLoop,     EditKind::HoistZero,
};

/**
 * Applies the `index`-th edit of one kind, locating sites in a
 * deterministic pre-order walk (declaration order, then statement
 * order, then expression operands left to right). apply() returns
 * false when the program has fewer than index+1 sites — the caller's
 * signal that this kind is exhausted.
 */
class EditApplier
{
  public:
    EditApplier(EditKind kind, std::size_t index)
        : kind_(kind), remaining_(index)
    {}

    bool apply(Program &program)
    {
        if (kind_ == EditKind::RemoveFunction) {
            for (std::size_t i = 0; i < program.functions.size();
                 i++) {
                if (program.functions[i]->name == "main")
                    continue;
                if (remaining_-- == 0) {
                    program.functions.erase(
                        program.functions.begin() +
                        static_cast<std::ptrdiff_t>(i));
                    return true;
                }
            }
            return false;
        }
        if (kind_ == EditKind::RemoveGlobal) {
            if (remaining_ < program.globals.size()) {
                program.globals.erase(
                    program.globals.begin() +
                    static_cast<std::ptrdiff_t>(remaining_));
                return true;
            }
            return false;
        }
        for (const auto &func : program.functions) {
            if (visitBlock(*func->body))
                return true;
        }
        return false;
    }

  private:
    /** Is this slot the site the applier is looking for? */
    bool claim() { return remaining_-- == 0; }

    bool visitBlock(BlockStmt &block)
    {
        auto &body = block.body;
        for (std::size_t i = 0; i < body.size(); i++) {
            if (kind_ == EditKind::RemoveStmt && claim()) {
                body.erase(body.begin() +
                           static_cast<std::ptrdiff_t>(i));
                return true;
            }
            if (visitStmtSlot(body[i]))
                return true;
        }
        return false;
    }

    /** Visits one owned statement slot (may replace the slot). */
    bool visitStmtSlot(StmtPtr &slot)
    {
        Stmt &stmt = *slot;
        switch (stmt.kind()) {
        case StmtKind::Block:
            return visitBlock(static_cast<BlockStmt &>(stmt));
        case StmtKind::VarDecl:
            return visitMaybeExpr(
                static_cast<VarDeclStmt &>(stmt).init);
        case StmtKind::If: {
            auto &branch = static_cast<IfStmt &>(stmt);
            if (kind_ == EditKind::FoldIfThen && claim()) {
                slot = std::move(branch.thenStmt);
                return true;
            }
            if (branch.elseStmt) {
                if (kind_ == EditKind::FoldIfElse && claim()) {
                    slot = std::move(branch.elseStmt);
                    return true;
                }
                if (kind_ == EditKind::DropElse && claim()) {
                    branch.elseStmt = nullptr;
                    return true;
                }
            }
            if (visitExprSlot(branch.cond, true))
                return true;
            if (visitStmtSlot(branch.thenStmt))
                return true;
            return branch.elseStmt &&
                   visitStmtSlot(branch.elseStmt);
        }
        case StmtKind::While: {
            auto &loop = static_cast<WhileStmt &>(stmt);
            if (kind_ == EditKind::UnwrapLoop && claim()) {
                slot = std::move(loop.body);
                return true;
            }
            if (visitExprSlot(loop.cond, true))
                return true;
            return visitStmtSlot(loop.body);
        }
        case StmtKind::For: {
            auto &loop = static_cast<ForStmt &>(stmt);
            if (kind_ == EditKind::UnwrapLoop && claim()) {
                // Keep the init clause: the body usually reads the
                // induction variable. `for (init; c; s) b` -> `{
                // init; b }` run once.
                auto block =
                    std::make_unique<BlockStmt>(stmt.loc());
                if (loop.init)
                    block->body.push_back(std::move(loop.init));
                block->body.push_back(std::move(loop.body));
                slot = std::move(block);
                return true;
            }
            if (loop.init) {
                if (kind_ == EditKind::RemoveStmt && claim()) {
                    loop.init = nullptr;
                    return true;
                }
                if (visitStmtSlot(loop.init))
                    return true;
            }
            if (visitMaybeExpr(loop.cond))
                return true;
            if (visitMaybeExpr(loop.step))
                return true;
            return visitStmtSlot(loop.body);
        }
        case StmtKind::Return:
            return visitMaybeExpr(
                static_cast<ReturnStmt &>(stmt).value);
        case StmtKind::ExprStmt:
            return visitExprSlot(
                static_cast<ExprStmt &>(stmt).expr, true);
        case StmtKind::Break:
        case StmtKind::Continue:
            return false;
        }
        return false;
    }

    bool visitMaybeExpr(ExprPtr &slot)
    {
        return slot && visitExprSlot(slot, true);
    }

    /** Visits one owned expression slot; `hoistable` is false for
     *  slots that must stay lvalues (assignment targets). */
    bool visitExprSlot(ExprPtr &slot, bool hoistable)
    {
        Expr &expr = *slot;
        if (kind_ == EditKind::HoistZero && hoistable &&
            hoistEligible(expr) && claim()) {
            slot = std::make_unique<IntLitExpr>(expr.loc(), 0);
            return true;
        }
        switch (expr.kind()) {
        case ExprKind::Unary:
            return visitExprSlot(
                static_cast<UnaryExpr &>(expr).operand, true);
        case ExprKind::Binary: {
            auto &bin = static_cast<BinaryExpr &>(expr);
            return visitExprSlot(bin.lhs, true) ||
                   visitExprSlot(bin.rhs, true);
        }
        case ExprKind::Assign: {
            auto &assign = static_cast<AssignExpr &>(expr);
            return visitExprSlot(assign.target, false) ||
                   visitExprSlot(assign.value, true);
        }
        case ExprKind::Cond: {
            auto &cond = static_cast<CondExpr &>(expr);
            return visitExprSlot(cond.cond, true) ||
                   visitExprSlot(cond.thenExpr, true) ||
                   visitExprSlot(cond.elseExpr, true);
        }
        case ExprKind::Call: {
            for (auto &arg : static_cast<CallExpr &>(expr).args) {
                if (visitExprSlot(arg, true))
                    return true;
            }
            return false;
        }
        case ExprKind::Index: {
            auto &index = static_cast<IndexExpr &>(expr);
            // The base stays an lvalue-ish pointer; hoisting it to 0
            // would only produce sema rejects.
            return visitExprSlot(index.base, false) ||
                   visitExprSlot(index.index, true);
        }
        case ExprKind::Member:
            return visitExprSlot(
                static_cast<MemberExpr &>(expr).base, false);
        case ExprKind::Cast:
            return visitExprSlot(
                static_cast<CastExpr &>(expr).operand, true);
        default:
            return false;
        }
    }

    static bool hoistEligible(const Expr &expr)
    {
        switch (expr.kind()) {
        case ExprKind::IntLit:
        case ExprKind::FloatLit:
        case ExprKind::StrLit:
        case ExprKind::SizeOf:
            return false;
        default:
            break;
        }
        // Only integer-typed expressions become `0`; everything else
        // (pointers, structs, doubles) would just burn frontend
        // rejects. The program came from parseAndCheck, so types are
        // annotated.
        return expr.type && expr.type->isInteger();
    }

    EditKind kind_;
    std::size_t remaining_;
};

/** parseAndCheck that reports failure instead of throwing. */
std::unique_ptr<Program>
tryFrontend(const std::string &source)
{
    try {
        return parseAndCheck(source);
    } catch (const support::CompileError &) {
        return nullptr;
    }
}

} // namespace

std::size_t
countStatements(const Program &program)
{
    return countProgram(program).stmts;
}

std::size_t
countAstNodes(const Program &program)
{
    return countProgram(program).nodes;
}

ProgramReduction
reduceProgram(Oracle &oracle, const std::string &source,
              const support::Bytes &input)
{
    obs::Span span("reduce.program");
    ProgramReduction out;
    const std::uint64_t tried_before = oracle.stats().tried;
    const std::uint64_t accepted_before = oracle.stats().accepted;

    {
        auto program = tryFrontend(source);
        if (program) {
            const NodeCounts counts = countProgram(*program);
            out.stmtsBefore = counts.stmts;
            out.nodesBefore = counts.nodes;
            // Canonicalize immediately: every later candidate is a
            // printProgram rendering, so diffs against the current
            // best stay purely structural.
            out.source = printProgram(*program);
        }
        if (!program || !tryFrontend(out.source)) {
            // Candidates are printed programs; if the printed start
            // does not parse, none would. Keep the program unreduced.
            out.source = source;
            out.stmtsAfter = out.stmtsBefore;
            out.nodesAfter = out.nodesBefore;
            return out;
        }
    }

    bool progressed = true;
    while (progressed && !oracle.budgetExhausted()) {
        progressed = false;
        for (EditKind kind : kEditOrder) {
            for (std::size_t index = 0;
                 !oracle.budgetExhausted();) {
                auto working = parseAndCheck(out.source);
                EditApplier applier(kind, index);
                if (!applier.apply(*working))
                    break; // sites of this kind exhausted
                const std::string candidate_source =
                    printProgram(*working);
                auto candidate = tryFrontend(candidate_source);
                if (!candidate) {
                    // E.g. a pruned function that is still called:
                    // rejected by sema, no oracle budget spent.
                    out.frontendRejected++;
                    index++;
                    continue;
                }
                if (oracle.preserves(*candidate, input)) {
                    out.source = candidate_source;
                    progressed = true;
                    // Sites shifted down; the same index now names
                    // the next site, so do not advance it.
                } else {
                    index++;
                }
            }
        }
    }

    {
        auto program = parseAndCheck(out.source);
        const NodeCounts counts = countProgram(*program);
        out.stmtsAfter = counts.stmts;
        out.nodesAfter = counts.nodes;
    }
    out.candidatesTried = oracle.stats().tried - tried_before;
    out.candidatesAccepted =
        oracle.stats().accepted - accepted_before;
    obs::counter("reduce.program.stmts_removed")
        .add(out.stmtsBefore - out.stmtsAfter);
    obs::counter("reduce.program.nodes_removed")
        .add(out.nodesBefore >= out.nodesAfter
                 ? out.nodesBefore - out.nodesAfter
                 : 0);
    obs::counter("reduce.program.frontend_rejected")
        .add(out.frontendRejected);
    return out;
}

} // namespace compdiff::reduce
