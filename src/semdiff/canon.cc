#include "semdiff/canon.hh"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "compiler/compiler.hh"
#include "minic/parser.hh"
#include "minic/printer.hh"
#include "minic/walk.hh"
#include "support/diagnostics.hh"
#include "support/hash.hh"

namespace compdiff::semdiff
{

namespace
{

using namespace minic;

// ---------------------------------------------------------------
// Pass 1: dead-code strip
// ---------------------------------------------------------------

bool
isTerminator(const Stmt &stmt)
{
    return stmt.kind() == StmtKind::Return ||
           stmt.kind() == StmtKind::Break ||
           stmt.kind() == StmtKind::Continue;
}

/**
 * Append what an unreachable statement leaves behind to `out`: its
 * declarations, in order, inside the blocks (and `for` scopes) that
 * held them. Frame layout is a configuration trait (LayoutOrder sorts
 * locals by size or reverse declaration), so removing even an
 * unreachable VarDecl could shift live slots and change what an
 * out-of-bounds access observes. Everything else goes; an `if` or
 * `while` body splices into the enclosing list, which is the scope
 * its unbraced declarations live in.
 */
void
keepDeclarations(StmtPtr stmt, std::vector<StmtPtr> &out)
{
    if (!stmt)
        return;
    switch (stmt->kind()) {
    case StmtKind::VarDecl:
        out.push_back(std::move(stmt));
        break;
    case StmtKind::Block: {
        auto &body = static_cast<BlockStmt &>(*stmt).body;
        std::vector<StmtPtr> kept;
        for (auto &child : body)
            keepDeclarations(std::move(child), kept);
        body = std::move(kept);
        if (!body.empty())
            out.push_back(std::move(stmt));
        break;
    }
    case StmtKind::If: {
        auto &ifs = static_cast<IfStmt &>(*stmt);
        keepDeclarations(std::move(ifs.thenStmt), out);
        keepDeclarations(std::move(ifs.elseStmt), out);
        break;
    }
    case StmtKind::While: {
        auto &loop = static_cast<WhileStmt &>(*stmt);
        keepDeclarations(std::move(loop.body), out);
        break;
    }
    case StmtKind::For: {
        auto &loop = static_cast<ForStmt &>(*stmt);
        auto scope = std::make_unique<BlockStmt>(loop.loc());
        keepDeclarations(std::move(loop.init), scope->body);
        keepDeclarations(std::move(loop.body), scope->body);
        if (!scope->body.empty())
            out.push_back(std::move(scope));
        break;
    }
    default:
        break;
    }
}

/** Drop what follows the first terminator in every block, keeping
 *  only its declarations (keepDeclarations). */
void stripUnreachableTails(StmtPtr &stmt);

/** The block-body form: a function body's top-level statement list
 *  is a bare vector, not a BlockStmt node, so the truncation logic
 *  lives here and the Block case below delegates to it. */
void
stripUnreachableTailsInList(std::vector<StmtPtr> &body)
{
    for (std::size_t i = 0; i < body.size(); i++) {
        stripUnreachableTails(body[i]);
        if (!isTerminator(*body[i]))
            continue;
        std::vector<StmtPtr> kept;
        for (std::size_t k = 0; k <= i; k++)
            kept.push_back(std::move(body[k]));
        for (std::size_t k = i + 1; k < body.size(); k++)
            keepDeclarations(std::move(body[k]), kept);
        body = std::move(kept);
        return;
    }
}

void
stripUnreachableTails(StmtPtr &stmt)
{
    if (!stmt)
        return;
    switch (stmt->kind()) {
    case StmtKind::Block:
        stripUnreachableTailsInList(
            static_cast<BlockStmt &>(*stmt).body);
        break;
    case StmtKind::If: {
        auto &ifs = static_cast<IfStmt &>(*stmt);
        stripUnreachableTails(ifs.thenStmt);
        stripUnreachableTails(ifs.elseStmt);
        break;
    }
    case StmtKind::While:
        stripUnreachableTails(static_cast<WhileStmt &>(*stmt).body);
        break;
    case StmtKind::For:
        stripUnreachableTails(static_cast<ForStmt &>(*stmt).body);
        break;
    default:
        break;
    }
}

/** Callee names (user functions only) in call-site order. */
std::vector<std::string>
calleesOf(const FunctionDecl &func)
{
    std::vector<std::string> callees;
    walkNodes(*func.body, [&](const Expr &expr) {
        if (expr.kind() != ExprKind::Call)
            return;
        const auto &call = static_cast<const CallExpr &>(expr);
        if (call.builtin == Builtin::None)
            callees.push_back(call.callee);
    });
    return callees;
}

/**
 * Passes 1b + 2: drop functions unreachable from main and emit the
 * survivors in post-order of a DFS from main (callees first, main
 * last). Without a main every function is kept in source order —
 * such a program cannot run, so its canonical form only needs to be
 * deterministic, not clever.
 */
void
pruneAndOrderFunctions(Program &program)
{
    FunctionDecl *main = program.findFunction("main");
    if (!main)
        return;

    std::map<std::string, FunctionDecl *> by_name;
    for (auto &func : program.functions)
        by_name[func->name] = func.get();

    std::vector<std::string> order;
    std::set<std::string> visiting, done;
    std::function<void(FunctionDecl &)> visit =
        [&](FunctionDecl &func) {
            if (done.count(func.name) || visiting.count(func.name))
                return;
            visiting.insert(func.name);
            for (const auto &callee : calleesOf(func)) {
                auto it = by_name.find(callee);
                if (it != by_name.end())
                    visit(*it->second);
            }
            visiting.erase(func.name);
            done.insert(func.name);
            order.push_back(func.name);
        };
    visit(*main);

    std::vector<std::unique_ptr<FunctionDecl>> reordered;
    for (const auto &name : order) {
        for (auto &func : program.functions) {
            if (func && func->name == name) {
                reordered.push_back(std::move(func));
                break;
            }
        }
    }
    program.functions = std::move(reordered);
}

// ---------------------------------------------------------------
// Pass 3: alpha-rename
// ---------------------------------------------------------------

void
renameProgram(Program &program)
{
    // Functions, in the (already canonical) emission order.
    std::map<std::string, std::string> func_names;
    std::size_t next_func = 0;
    for (auto &func : program.functions) {
        if (func->name == "main")
            func_names[func->name] = "main";
        else
            func_names[func->name] =
                "cf" + std::to_string(next_func++);
    }

    // Globals, in declaration order, keyed by sema's globalId so a
    // shadowed lookup can never mis-bind.
    std::map<int, std::string> global_names;
    std::size_t next_global = 0;
    for (auto &global : program.globals) {
        global_names[global->globalId] =
            "cg" + std::to_string(next_global++);
        global->name = global_names[global->globalId];
    }

    for (auto &func : program.functions) {
        func->name = func_names[func->name];

        // Locals: params first, then declarations in syntactic
        // order, keyed by localId (shadowing-proof and invariant
        // under the later expression/statement sorts, which never
        // move a VarDecl).
        std::map<int, std::string> local_names;
        std::size_t next_local = 0;
        for (auto &param : func->params) {
            local_names[param.localId] =
                "cv" + std::to_string(next_local++);
            param.name = local_names[param.localId];
        }
        // The child-first statement walk still visits VarDecls in
        // textual order (a declaration has no VarDecl descendants),
        // so numbering follows the source.
        walkSlots(*func->body, [&](StmtPtr &stmt) {
            if (stmt->kind() != StmtKind::VarDecl)
                return;
            auto &decl = static_cast<VarDeclStmt &>(*stmt);
            if (!local_names.count(decl.localId))
                local_names[decl.localId] =
                    "cv" + std::to_string(next_local++);
            decl.name = local_names[decl.localId];
        });
        walkSlots(*func->body, [&](ExprPtr &expr) {
            if (expr->kind() == ExprKind::VarRef) {
                auto &ref = static_cast<VarRefExpr &>(*expr);
                const auto &names =
                    ref.isGlobal ? global_names : local_names;
                auto it = names.find(ref.id);
                if (it != names.end())
                    ref.name = it->second;
            } else if (expr->kind() == ExprKind::Call) {
                auto &call = static_cast<CallExpr &>(*expr);
                if (call.builtin != Builtin::None)
                    return;
                auto it = func_names.find(call.callee);
                if (it != func_names.end())
                    call.callee = it->second;
            }
        });
    }
}

// ---------------------------------------------------------------
// Pass 4: commutative-operand sort
// ---------------------------------------------------------------

/**
 * Side-effect-free AND trap-free: evaluating the expression cannot
 * write state, consume input, or abort, so evaluation order against
 * any sibling expression is unobservable. Div/Rem (zero divisor),
 * casts (float->int range), loads (Index/Member/Deref can fault) and
 * all calls are excluded.
 */
bool
isReorderSafe(const Expr &expr)
{
    switch (expr.kind()) {
    case ExprKind::IntLit:
    case ExprKind::FloatLit:
    case ExprKind::StrLit:
    case ExprKind::SizeOf:
        return true;
    case ExprKind::VarRef:
        return true;
    case ExprKind::Unary: {
        const auto &un = static_cast<const UnaryExpr &>(expr);
        if (un.op == UnaryOp::Deref || un.op == UnaryOp::AddrOf)
            return un.op == UnaryOp::AddrOf &&
                   isReorderSafe(*un.operand);
        return isReorderSafe(*un.operand);
    }
    case ExprKind::Binary: {
        const auto &bin = static_cast<const BinaryExpr &>(expr);
        if (bin.op == BinaryOp::Div || bin.op == BinaryOp::Rem)
            return false;
        return isReorderSafe(*bin.lhs) && isReorderSafe(*bin.rhs);
    }
    default:
        return false;
    }
}

bool
isCommutative(BinaryOp op)
{
    switch (op) {
    case BinaryOp::Add:
    case BinaryOp::Mul:
    case BinaryOp::BitAnd:
    case BinaryOp::BitOr:
    case BinaryOp::BitXor:
    case BinaryOp::Eq:
    case BinaryOp::Ne:
        return true;
    default:
        return false;
    }
}

bool
isLiteral(const Expr &expr)
{
    return expr.kind() == ExprKind::IntLit ||
           expr.kind() == ExprKind::FloatLit ||
           expr.kind() == ExprKind::StrLit;
}

void
sortCommutativeOperands(Program &program)
{
    for (auto &func : program.functions) {
        walkSlots(*func->body, [](ExprPtr &expr) {
            if (expr->kind() != ExprKind::Binary)
                return;
            auto &bin = static_cast<BinaryExpr &>(*expr);
            if (!isCommutative(bin.op))
                return;
            // Literals stay where they were written: the UB-exploiting
            // and seeded-miscompile passes match constants on specific
            // operand sides, and a merge key must never change what
            // the compilers do.
            if (isLiteral(*bin.lhs) || isLiteral(*bin.rhs))
                return;
            if (!bin.lhs->type || !bin.rhs->type ||
                !bin.lhs->type->isInteger() ||
                !bin.rhs->type->isInteger())
                return;
            if (!isReorderSafe(*bin.lhs) || !isReorderSafe(*bin.rhs))
                return;
            if (printExpr(*bin.rhs) < printExpr(*bin.lhs))
                std::swap(bin.lhs, bin.rhs);
        });
    }
}

// ---------------------------------------------------------------
// Pass 5: independent-statement sort
// ---------------------------------------------------------------

/** `v = <reorder-safe expr>;` targeting a plain scalar variable. */
const AssignExpr *
asSortableAssign(const Stmt &stmt)
{
    if (stmt.kind() != StmtKind::ExprStmt)
        return nullptr;
    const auto &expr = *static_cast<const ExprStmt &>(stmt).expr;
    if (expr.kind() != ExprKind::Assign)
        return nullptr;
    const auto &assign = static_cast<const AssignExpr &>(expr);
    if (assign.compoundOp)
        return nullptr;
    if (assign.target->kind() != ExprKind::VarRef)
        return nullptr;
    if (!isReorderSafe(*assign.value))
        return nullptr;
    return &assign;
}

/** All variables (isGlobal, id) read anywhere in the expression. */
void
collectReads(const Expr &expr, std::set<std::pair<bool, int>> *out)
{
    walkNodes(expr, [&](const Expr &node) {
        if (node.kind() != ExprKind::VarRef)
            return;
        const auto &ref = static_cast<const VarRefExpr &>(node);
        out->insert({ref.isGlobal, ref.id});
    });
}

bool
independentAssigns(const AssignExpr &a, const AssignExpr &b)
{
    const auto &ta = static_cast<const VarRefExpr &>(*a.target);
    const auto &tb = static_cast<const VarRefExpr &>(*b.target);
    const std::pair<bool, int> key_a{ta.isGlobal, ta.id};
    const std::pair<bool, int> key_b{tb.isGlobal, tb.id};
    if (key_a == key_b)
        return false;
    std::set<std::pair<bool, int>> reads_a, reads_b;
    collectReads(*a.value, &reads_a);
    collectReads(*b.value, &reads_b);
    return !reads_a.count(key_b) && !reads_b.count(key_a);
}

void
sortIndependentStatements(Program &program)
{
    auto sort_block = [](std::vector<StmtPtr> &body) {
        // Bubble to a fixpoint: adjacent sortable, independent,
        // out-of-(printed)-order pairs swap. Terminates because each
        // swap strictly reduces the number of swappable inversions.
        bool changed = true;
        while (changed) {
            changed = false;
            for (std::size_t i = 0; i + 1 < body.size(); i++) {
                const AssignExpr *first = asSortableAssign(*body[i]);
                const AssignExpr *second =
                    asSortableAssign(*body[i + 1]);
                if (!first || !second ||
                    !independentAssigns(*first, *second))
                    continue;
                if (printStmt(*body[i + 1]) < printStmt(*body[i])) {
                    std::swap(body[i], body[i + 1]);
                    changed = true;
                }
            }
        }
    };
    for (auto &func : program.functions) {
        // Inner blocks first; the function body has no slot of its
        // own, so its list goes last.
        walkSlots(*func->body, [&](StmtPtr &stmt) {
            if (stmt->kind() == StmtKind::Block)
                sort_block(static_cast<BlockStmt &>(*stmt).body);
        });
        sort_block(func->body->body);
    }
}

/**
 * The implementation whose rodata image a canonical form must keep:
 * unoptimized, so no pass has dropped a literal.
 */
const compiler::CompilerConfig kRodataConfig{compiler::Vendor::Clang,
                                             compiler::OptLevel::O0,
                                             compiler::Sanitizer::None};

} // namespace

std::uint64_t
SemanticKey::combined() const
{
    return semanticKeyOf(canonHash, behavior);
}

std::uint64_t
semanticKeyOf(std::uint64_t canon_hash,
              std::uint64_t behavior_signature)
{
    support::HashCombiner key;
    key.addString("semdiff.key.v1");
    key.add(canon_hash);
    key.add(behavior_signature);
    return key.digest();
}

CanonicalForm
canonicalizeSource(const std::string &source)
{
    const auto fallback = [&] {
        return CanonicalForm{source, support::murmurHash64(source)};
    };

    // Lowering interns every string literal, dead code included, into
    // one rodata image in function and code order, and a live
    // out-of-bounds read sees those bytes. Stripping, reordering or
    // sorting statements that hold literals can change that image, so
    // a canonical form must keep it.
    std::unique_ptr<minic::Program> program;
    std::vector<std::uint8_t> rodata;
    try {
        program = minic::parseAndCheck(source);
        rodata = compiler::Compiler(*program).rodata(kRodataConfig);
    } catch (const support::CompileError &) {
        return fallback();
    }

    for (auto &func : program->functions)
        stripUnreachableTailsInList(func->body->body);
    // A stripped tail can orphan a callee: prune sees the new call
    // graph, so strip runs first.
    pruneAndOrderFunctions(*program);
    renameProgram(*program);
    sortCommutativeOperands(*program);
    sortIndependentStatements(*program);

    const std::string canonical = minic::printProgram(*program);
    try {
        // The canonical text must itself survive the frontend —
        // anything else is a canonicalizer bug, and exact-text
        // identity is the safe degradation.
        const auto reparsed = minic::parseAndCheck(canonical);
        if (compiler::Compiler(*reparsed).rodata(kRodataConfig) != rodata)
            return fallback();
    } catch (const support::CompileError &) {
        return fallback();
    }
    return {canonical, support::murmurHash64(canonical)};
}

CanonicalForm
canonicalize(const minic::Program &program)
{
    return canonicalizeSource(minic::printProgram(program));
}

} // namespace compdiff::semdiff
