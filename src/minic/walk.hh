#pragma once

/**
 * @file
 * The one generic child traversal of the MiniC AST.
 *
 * The compiler's passes, the compile-cache line fingerprint, the
 * semantic canonicalizer and the program reducer's node counts all
 * visit "every node below here" through these templates, so which
 * children a node has, and in which order, is written down once.
 * That order reaches canonical names (`cv<N>`), compile-cache keys
 * and session MANIFEST fingerprints.
 *
 * The walk visits children in print order and reports each node
 * after its children. It comes in two forms over one switch per
 * node kind:
 *  - walkSlots() hands the callback mutable slots (`ExprPtr &`,
 *    `StmtPtr &`). The callback may edit the node in place or
 *    replace it in its slot; a replacement is not walked.
 *  - walkNodes() hands the callback const nodes (`const Expr &`,
 *    `const Stmt &`).
 * The callback's parameter type selects what it sees: a callback
 * taking only `ExprPtr &` sees expressions, one taking `auto &`
 * sees both kinds, and a walk whose callback takes no expressions
 * does not descend into them. Empty slots (a missing else,
 * for-init, return value, ...) are skipped.
 */

#include <concepts>
#include <type_traits>
#include <utility>

#include "minic/ast.hh"

namespace compdiff::minic
{

namespace walk_detail
{

/** `Node` is `Base` or `const Base`. */
template <typename Node, typename Base>
concept NodeOf = std::same_as<std::remove_const_t<Node>, Base>;

/** static_cast to a derived node type, keeping `Base`'s const. */
template <typename Derived, typename Base>
auto &
as(Base &node)
{
    if constexpr (std::is_const_v<Base>)
        return static_cast<const Derived &>(node);
    else
        return static_cast<Derived &>(node);
}

/** Call `child` on each child slot of `expr`, in print order. */
template <NodeOf<Expr> E, typename Child>
void
forEachChild(E &expr, Child &&child)
{
    switch (expr.kind()) {
    case ExprKind::IntLit:
    case ExprKind::FloatLit:
    case ExprKind::StrLit:
    case ExprKind::VarRef:
    case ExprKind::SizeOf:
        return;
    case ExprKind::Unary:
        child(as<UnaryExpr>(expr).operand);
        return;
    case ExprKind::Binary:
        child(as<BinaryExpr>(expr).lhs);
        child(as<BinaryExpr>(expr).rhs);
        return;
    case ExprKind::Assign:
        child(as<AssignExpr>(expr).target);
        child(as<AssignExpr>(expr).value);
        return;
    case ExprKind::Cond:
        child(as<CondExpr>(expr).cond);
        child(as<CondExpr>(expr).thenExpr);
        child(as<CondExpr>(expr).elseExpr);
        return;
    case ExprKind::Call:
        for (auto &arg : as<CallExpr>(expr).args)
            child(arg);
        return;
    case ExprKind::Index:
        child(as<IndexExpr>(expr).base);
        child(as<IndexExpr>(expr).index);
        return;
    case ExprKind::Member:
        child(as<MemberExpr>(expr).base);
        return;
    case ExprKind::Cast:
        child(as<CastExpr>(expr).operand);
        return;
    }
}

/** Call `child` on each child slot of `stmt`, in print order. */
template <NodeOf<Stmt> S, typename Child>
void
forEachChild(S &stmt, Child &&child)
{
    switch (stmt.kind()) {
    case StmtKind::Block:
        for (auto &inner : as<BlockStmt>(stmt).body)
            child(inner);
        return;
    case StmtKind::VarDecl:
        child(as<VarDeclStmt>(stmt).init);
        return;
    case StmtKind::If:
        child(as<IfStmt>(stmt).cond);
        child(as<IfStmt>(stmt).thenStmt);
        child(as<IfStmt>(stmt).elseStmt);
        return;
    case StmtKind::While:
        child(as<WhileStmt>(stmt).cond);
        child(as<WhileStmt>(stmt).body);
        return;
    case StmtKind::For:
        child(as<ForStmt>(stmt).init);
        child(as<ForStmt>(stmt).cond);
        child(as<ForStmt>(stmt).step);
        child(as<ForStmt>(stmt).body);
        return;
    case StmtKind::Return:
        child(as<ReturnStmt>(stmt).value);
        return;
    case StmtKind::ExprStmt:
        child(as<ExprStmt>(stmt).expr);
        return;
    case StmtKind::Break:
    case StmtKind::Continue:
        return;
    }
}

template <typename Node, typename Fn>
void visitChildren(Node &node, Fn &fn);

template <typename Node, typename Fn>
void
visitNode(const Node &node, Fn &fn)
{
    visitChildren(node, fn);
    if constexpr (std::is_invocable_v<Fn &, const Node &>)
        fn(node);
}

/** Walk the subtree in `slot`, then report it: the slot itself in
 *  a mutable walk, the const node in a const one. */
template <typename Slot, typename Fn>
void
visitSlot(Slot &slot, Fn &fn)
{
    // An expression holds no statements: a callback that takes no
    // expressions has nothing to see below one.
    using Reported = std::conditional_t<std::is_const_v<Slot>,
                                        const Expr &, ExprPtr &>;
    if constexpr (std::same_as<std::remove_const_t<Slot>, ExprPtr> &&
                  !std::is_invocable_v<Fn &, Reported>)
        return;
    if (!slot)
        return;
    if constexpr (std::is_const_v<Slot>) {
        visitNode(std::as_const(*slot), fn);
    } else {
        visitChildren(*slot, fn);
        if constexpr (std::is_invocable_v<Fn &, Slot &>)
            fn(slot);
    }
}

template <typename Node, typename Fn>
void
visitChildren(Node &node, Fn &fn)
{
    forEachChild(node, [&](auto &child) { visitSlot(child, fn); });
}

} // namespace walk_detail

/** Every expression and statement slot below `stmt` (not `stmt`
 *  itself, which has no slot here), each after its children. */
template <typename Fn>
void
walkSlots(Stmt &stmt, Fn &&fn)
{
    static_assert(std::is_invocable_v<Fn &, ExprPtr &> ||
                      std::is_invocable_v<Fn &, StmtPtr &>,
                  "the callback takes ExprPtr & or StmtPtr &");
    walk_detail::visitChildren(stmt, fn);
}

/** Every expression slot of the tree in `root`, `root` last. */
template <typename Fn>
void
walkSlots(ExprPtr &root, Fn &&fn)
{
    static_assert(std::is_invocable_v<Fn &, ExprPtr &>,
                  "the callback takes ExprPtr &");
    walk_detail::visitSlot(root, fn);
}

/** Every statement and expression of the subtree, `stmt` last. */
template <typename Fn>
void
walkNodes(const Stmt &stmt, Fn &&fn)
{
    static_assert(std::is_invocable_v<Fn &, const Expr &> ||
                      std::is_invocable_v<Fn &, const Stmt &>,
                  "the callback takes const Expr & or const Stmt &");
    walk_detail::visitNode(stmt, fn);
}

/** Every expression of the tree, `expr` last. */
template <typename Fn>
void
walkNodes(const Expr &expr, Fn &&fn)
{
    static_assert(std::is_invocable_v<Fn &, const Expr &>,
                  "the callback takes const Expr &");
    walk_detail::visitNode(expr, fn);
}

} // namespace compdiff::minic
