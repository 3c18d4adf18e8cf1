#include "compiler/passes.hh"

#include <map>

#include "minic/walk.hh"
#include "support/logging.hh"

namespace compdiff::compiler
{

using namespace minic;

namespace
{

void
wrapInBlock(StmtPtr &stmt)
{
    if (!stmt || stmt->kind() == StmtKind::Block)
        return;
    auto block = std::make_unique<BlockStmt>(stmt->loc());
    block->body.push_back(std::move(stmt));
    stmt = std::move(block);
}

/**
 * Invoke `fn` on every statement list (block body) of a function,
 * innermost first and the function body's own list last; `fn` may
 * erase or replace statements.
 */
template <typename Fn>
void
forEachStmtList(BlockStmt &body, Fn &&fn)
{
    walkSlots(body, [&](StmtPtr &stmt) {
        if (stmt->kind() == StmtKind::Block)
            fn(static_cast<BlockStmt &>(*stmt).body);
    });
    fn(body.body);
}

} // namespace

void
normalizeBodies(FunctionDecl &func)
{
    if (!func.body)
        return;
    walkSlots(*func.body, [](StmtPtr &stmt) {
        switch (stmt->kind()) {
          case StmtKind::If: {
            auto &if_stmt = static_cast<IfStmt &>(*stmt);
            wrapInBlock(if_stmt.thenStmt);
            wrapInBlock(if_stmt.elseStmt);
            return;
          }
          case StmtKind::While:
            wrapInBlock(static_cast<WhileStmt &>(*stmt).body);
            return;
          case StmtKind::For:
            wrapInBlock(static_cast<ForStmt &>(*stmt).body);
            return;
          default:
            return;
        }
    });
}

bool
isPureExpr(const Expr &expr)
{
    bool pure = true;
    walkNodes(expr, [&](const Expr &node) {
        pure = pure && node.kind() != ExprKind::Assign &&
               node.kind() != ExprKind::Call;
    });
    return pure;
}

bool
pureExprEquals(const Expr &a, const Expr &b)
{
    if (a.kind() != b.kind())
        return false;
    switch (a.kind()) {
      case ExprKind::IntLit:
        return static_cast<const IntLitExpr &>(a).value ==
               static_cast<const IntLitExpr &>(b).value;
      case ExprKind::VarRef: {
        const auto &ra = static_cast<const VarRefExpr &>(a);
        const auto &rb = static_cast<const VarRefExpr &>(b);
        return ra.isGlobal == rb.isGlobal && ra.id == rb.id;
      }
      case ExprKind::Member: {
        const auto &ma = static_cast<const MemberExpr &>(a);
        const auto &mb = static_cast<const MemberExpr &>(b);
        return ma.field == mb.field && ma.isArrow == mb.isArrow &&
               pureExprEquals(*ma.base, *mb.base);
      }
      case ExprKind::Index: {
        const auto &ia = static_cast<const IndexExpr &>(a);
        const auto &ib = static_cast<const IndexExpr &>(b);
        return pureExprEquals(*ia.base, *ib.base) &&
               pureExprEquals(*ia.index, *ib.index);
      }
      case ExprKind::Cast: {
        const auto &ca = static_cast<const CastExpr &>(a);
        const auto &cb = static_cast<const CastExpr &>(b);
        return ca.target == cb.target &&
               pureExprEquals(*ca.operand, *cb.operand);
      }
      case ExprKind::Unary: {
        const auto &ua = static_cast<const UnaryExpr &>(a);
        const auto &ub = static_cast<const UnaryExpr &>(b);
        // AddrOf/Deref chains participate; calls never reach here.
        return ua.op == ub.op && pureExprEquals(*ua.operand, *ub.operand);
      }
      default:
        return false; // conservative
    }
}

namespace
{

/** True when the type is a signed 32-bit int. */
bool
isSignedInt32(const Type *type)
{
    return type && type->kind() == TypeKind::Int;
}

/** True when the type is a signed integer (char/int/long). */
bool
isSignedIntType(const Type *type)
{
    return type && type->isInteger() && type->isSigned();
}

/** Make a typed integer literal. */
ExprPtr
makeIntLit(SourceLoc loc, std::int64_t value, const Type *type)
{
    auto lit = std::make_unique<IntLitExpr>(loc, value);
    lit->type = type;
    return lit;
}

/** Normalize a raw 64-bit result to the value range of `type`. */
std::int64_t
normalizeToType(std::int64_t raw, const Type *type)
{
    switch (type->kind()) {
      case TypeKind::Char:
        return static_cast<std::int8_t>(raw);
      case TypeKind::Int:
        return static_cast<std::int32_t>(raw);
      case TypeKind::UInt:
        return static_cast<std::int64_t>(
            static_cast<std::uint32_t>(raw));
      default:
        return raw;
    }
}

} // namespace

// ===================================================================
// ConstFoldPass
// ===================================================================

namespace
{

/** Fold a binary integer operation; nullopt when not safely foldable. */
std::optional<std::int64_t>
foldIntBinary(BinaryOp op, const Type *type, std::int64_t lv,
              std::int64_t rv)
{
    const bool is_unsigned = !type->isSigned();
    const auto ul = static_cast<std::uint64_t>(lv);
    const auto ur = static_cast<std::uint64_t>(rv);
    switch (op) {
      case BinaryOp::Add:
        return normalizeToType(static_cast<std::int64_t>(ul + ur),
                               type);
      case BinaryOp::Sub:
        return normalizeToType(static_cast<std::int64_t>(ul - ur),
                               type);
      case BinaryOp::Mul:
        return normalizeToType(static_cast<std::int64_t>(ul * ur),
                               type);
      case BinaryOp::Div:
      case BinaryOp::Rem:
        // Never fold a trapping division; leave the runtime behavior
        // (and any cross-implementation divergence) intact.
        return std::nullopt;
      case BinaryOp::Shl:
      case BinaryOp::Shr:
        // Shift-count semantics are per-configuration; do not fold.
        return std::nullopt;
      case BinaryOp::BitAnd: return normalizeToType(lv & rv, type);
      case BinaryOp::BitOr: return normalizeToType(lv | rv, type);
      case BinaryOp::BitXor: return normalizeToType(lv ^ rv, type);
      default:
        break;
    }
    // Comparisons: operands share `type` (the comparison type).
    switch (op) {
      case BinaryOp::Lt: return is_unsigned ? (ul < ur) : (lv < rv);
      case BinaryOp::Le: return is_unsigned ? (ul <= ur) : (lv <= rv);
      case BinaryOp::Gt: return is_unsigned ? (ul > ur) : (lv > rv);
      case BinaryOp::Ge: return is_unsigned ? (ul >= ur) : (lv >= rv);
      case BinaryOp::Eq: return lv == rv;
      case BinaryOp::Ne: return lv != rv;
      default:
        return std::nullopt;
    }
}

} // namespace

void
ConstFoldPass::run(FunctionDecl &func, const Traits &) const
{
    if (!func.body)
        return;

    walkSlots(*func.body, [](ExprPtr &expr) {
        switch (expr->kind()) {
          case ExprKind::Binary: {
            auto &bin = static_cast<BinaryExpr &>(*expr);
            // Short-circuit folding with a literal left side.
            if (bin.op == BinaryOp::LogAnd ||
                bin.op == BinaryOp::LogOr) {
                if (bin.lhs->kind() != ExprKind::IntLit)
                    return;
                const auto lv =
                    static_cast<IntLitExpr &>(*bin.lhs).value;
                const bool is_and = bin.op == BinaryOp::LogAnd;
                if (is_and && lv == 0) {
                    expr = makeIntLit(bin.loc(), 0, bin.type);
                } else if (!is_and && lv != 0) {
                    expr = makeIntLit(bin.loc(), 1, bin.type);
                }
                return;
            }
            if (bin.lhs->kind() == ExprKind::IntLit &&
                bin.rhs->kind() == ExprKind::IntLit &&
                bin.lhs->type && bin.lhs->type->isInteger() &&
                bin.rhs->type && bin.rhs->type->isInteger()) {
                // Operate at the comparison/arithmetic type. For
                // comparisons, the operand type decides signedness;
                // use the wider of the two operand types.
                const Type *op_type = bin.type;
                if (isComparison(bin.op)) {
                    op_type = bin.lhs->type->size() >=
                                      bin.rhs->type->size()
                                  ? bin.lhs->type
                                  : bin.rhs->type;
                }
                const auto lv =
                    static_cast<IntLitExpr &>(*bin.lhs).value;
                const auto rv =
                    static_cast<IntLitExpr &>(*bin.rhs).value;
                if (auto folded =
                        foldIntBinary(bin.op, op_type, lv, rv)) {
                    expr = makeIntLit(bin.loc(), *folded, bin.type);
                }
                return;
            }
            if (bin.lhs->kind() == ExprKind::FloatLit &&
                bin.rhs->kind() == ExprKind::FloatLit) {
                const double lv =
                    static_cast<FloatLitExpr &>(*bin.lhs).value;
                const double rv =
                    static_cast<FloatLitExpr &>(*bin.rhs).value;
                double folded;
                switch (bin.op) {
                  case BinaryOp::Add: folded = lv + rv; break;
                  case BinaryOp::Sub: folded = lv - rv; break;
                  case BinaryOp::Mul: folded = lv * rv; break;
                  default: return;
                }
                auto lit = std::make_unique<FloatLitExpr>(bin.loc(),
                                                          folded);
                lit->type = bin.type;
                expr = std::move(lit);
            }
            return;
          }
          case ExprKind::Unary: {
            auto &un = static_cast<UnaryExpr &>(*expr);
            if (un.operand->kind() != ExprKind::IntLit)
                return;
            const auto v =
                static_cast<IntLitExpr &>(*un.operand).value;
            switch (un.op) {
              case UnaryOp::Neg:
                expr = makeIntLit(
                    un.loc(),
                    normalizeToType(
                        -static_cast<std::uint64_t>(v), un.type),
                    un.type);
                return;
              case UnaryOp::BitNot:
                expr = makeIntLit(un.loc(),
                                  normalizeToType(~v, un.type),
                                  un.type);
                return;
              case UnaryOp::LogNot:
                expr = makeIntLit(un.loc(), v == 0, un.type);
                return;
              default:
                return;
            }
          }
          case ExprKind::Cond: {
            auto &cond = static_cast<CondExpr &>(*expr);
            if (cond.cond->kind() == ExprKind::IntLit) {
                const auto v =
                    static_cast<IntLitExpr &>(*cond.cond).value;
                const Type *result = cond.type;
                expr = v ? std::move(cond.thenExpr)
                         : std::move(cond.elseExpr);
                expr->type = result;
            }
            return;
          }
          case ExprKind::Cast: {
            auto &cast = static_cast<CastExpr &>(*expr);
            if (cast.operand->kind() == ExprKind::IntLit &&
                cast.target->isInteger()) {
                const auto v =
                    static_cast<IntLitExpr &>(*cast.operand).value;
                expr = makeIntLit(cast.loc(),
                                  normalizeToType(v, cast.target),
                                  cast.target);
            }
            return;
          }
          default:
            return;
        }
    });

    // Statement-level: fold branches with literal conditions.
    forEachStmtList(*func.body, [](std::vector<StmtPtr> &list) {
        for (std::size_t i = 0; i < list.size();) {
            Stmt &stmt = *list[i];
            if (stmt.kind() == StmtKind::If) {
                auto &if_stmt = static_cast<IfStmt &>(stmt);
                if (if_stmt.cond->kind() == ExprKind::IntLit) {
                    const auto v =
                        static_cast<IntLitExpr &>(*if_stmt.cond).value;
                    StmtPtr taken = v ? std::move(if_stmt.thenStmt)
                                      : std::move(if_stmt.elseStmt);
                    if (taken) {
                        list[i] = std::move(taken);
                    } else {
                        list.erase(list.begin() +
                                   static_cast<std::ptrdiff_t>(i));
                        continue;
                    }
                }
            } else if (stmt.kind() == StmtKind::While) {
                auto &while_stmt = static_cast<WhileStmt &>(stmt);
                if (while_stmt.cond->kind() == ExprKind::IntLit &&
                    static_cast<IntLitExpr &>(*while_stmt.cond)
                            .value == 0) {
                    list.erase(list.begin() +
                               static_cast<std::ptrdiff_t>(i));
                    continue;
                }
            }
            i++;
        }
    });
}

// ===================================================================
// UbGuardFoldPass
// ===================================================================

namespace
{

BinaryOp
flipComparison(BinaryOp op)
{
    switch (op) {
      case BinaryOp::Lt: return BinaryOp::Gt;
      case BinaryOp::Le: return BinaryOp::Ge;
      case BinaryOp::Gt: return BinaryOp::Lt;
      case BinaryOp::Ge: return BinaryOp::Le;
      default: return op;
    }
}

/**
 * Try to rewrite `(a+b) cmp a` (with the sum on the left) into
 * `b cmp 0`; returns the replacement or nullptr.
 */
ExprPtr
foldSumGuard(BinaryExpr &cmp, Expr &sum_side, Expr &other_side)
{
    if (sum_side.kind() != ExprKind::Binary)
        return nullptr;
    auto &sum = static_cast<BinaryExpr &>(sum_side);
    if (sum.op != BinaryOp::Add || sum.widenTo64)
        return nullptr;
    if (!isSignedIntType(sum.type))
        return nullptr; // unsigned wrap is defined; not foldable
    if (!isPureExpr(sum_side) || !isPureExpr(other_side))
        return nullptr;

    const Expr *residual = nullptr;
    if (pureExprEquals(*sum.lhs, other_side))
        residual = sum.rhs.get();
    else if (pureExprEquals(*sum.rhs, other_side))
        residual = sum.lhs.get();
    if (!residual)
        return nullptr;

    // (a+b) < a  ->  b < 0   (and Le/Gt/Ge analogously); valid only
    // if a+b cannot overflow, which the implementation may assume.
    auto zero = makeIntLit(cmp.loc(), 0, residual->type);
    auto replacement = std::make_unique<BinaryExpr>(
        cmp.loc(), cmp.op, residual->clone(), std::move(zero));
    replacement->type = cmp.type;
    return replacement;
}

} // namespace

void
UbGuardFoldPass::run(FunctionDecl &func, const Traits &) const
{
    if (!func.body)
        return;
    walkSlots(*func.body, [](ExprPtr &expr) {
        if (expr->kind() != ExprKind::Binary)
            return;
        auto &bin = static_cast<BinaryExpr &>(*expr);
        if (bin.op != BinaryOp::Lt && bin.op != BinaryOp::Le &&
            bin.op != BinaryOp::Gt && bin.op != BinaryOp::Ge) {
            return;
        }
        if (auto repl = foldSumGuard(bin, *bin.lhs, *bin.rhs)) {
            expr = std::move(repl);
            return;
        }
        // `a cmp (a+b)` is `(a+b) flip(cmp) a`.
        if (bin.rhs->kind() == ExprKind::Binary) {
            auto flipped = std::make_unique<BinaryExpr>(
                bin.loc(), flipComparison(bin.op), bin.rhs->clone(),
                bin.lhs->clone());
            flipped->type = bin.type;
            if (auto repl = foldSumGuard(*flipped, *flipped->lhs,
                                         *flipped->rhs)) {
                expr = std::move(repl);
            }
        }
    });
}

// ===================================================================
// AlwaysTrueIncCmpPass
// ===================================================================

void
AlwaysTrueIncCmpPass::run(FunctionDecl &func, const Traits &) const
{
    if (!func.body)
        return;

    // Matches `x + c` / `x - c` with a positive literal c.
    auto match_offset = [](Expr &expr, const Expr *&base,
                           bool &added) -> bool {
        if (expr.kind() != ExprKind::Binary)
            return false;
        auto &bin = static_cast<BinaryExpr &>(expr);
        if (bin.op != BinaryOp::Add && bin.op != BinaryOp::Sub)
            return false;
        if (!isSignedIntType(bin.type) || bin.widenTo64)
            return false;
        if (bin.rhs->kind() != ExprKind::IntLit)
            return false;
        if (static_cast<IntLitExpr &>(*bin.rhs).value <= 0)
            return false;
        if (!isPureExpr(*bin.lhs))
            return false;
        base = bin.lhs.get();
        added = bin.op == BinaryOp::Add;
        return true;
    };

    walkSlots(*func.body, [&](ExprPtr &expr) {
        if (expr->kind() != ExprKind::Binary)
            return;
        auto &bin = static_cast<BinaryExpr &>(*expr);
        const Expr *base = nullptr;
        bool added = false;
        bool always_true = false;

        // (x+c) > x, (x+c) >= x, x < (x+c), x <= (x+c) -> 1
        // (x-c) < x, (x-c) <= x, x > (x-c), x >= (x-c) -> 1
        if ((bin.op == BinaryOp::Gt || bin.op == BinaryOp::Ge) &&
            match_offset(*bin.lhs, base, added) && added &&
            pureExprEquals(*base, *bin.rhs)) {
            always_true = true;
        } else if ((bin.op == BinaryOp::Lt || bin.op == BinaryOp::Le) &&
                   match_offset(*bin.rhs, base, added) && added &&
                   pureExprEquals(*base, *bin.lhs)) {
            always_true = true;
        } else if ((bin.op == BinaryOp::Lt || bin.op == BinaryOp::Le) &&
                   match_offset(*bin.lhs, base, added) && !added &&
                   pureExprEquals(*base, *bin.rhs)) {
            always_true = true;
        } else if ((bin.op == BinaryOp::Gt || bin.op == BinaryOp::Ge) &&
                   match_offset(*bin.rhs, base, added) && !added &&
                   pureExprEquals(*base, *bin.lhs)) {
            always_true = true;
        }

        if (always_true)
            expr = makeIntLit(bin.loc(), 1, bin.type);
    });
}

// ===================================================================
// WidenMulPass
// ===================================================================

namespace
{

/** Recursively mark signed-int Add/Sub/Mul chains for 64-bit eval. */
void
markWiden(Expr &expr)
{
    if (expr.kind() != ExprKind::Binary)
        return;
    auto &bin = static_cast<BinaryExpr &>(expr);
    if (!isSignedInt32(bin.type))
        return;
    switch (bin.op) {
      case BinaryOp::Add:
      case BinaryOp::Sub:
      case BinaryOp::Mul:
        bin.widenTo64 = true;
        markWiden(*bin.lhs);
        markWiden(*bin.rhs);
        break;
      default:
        break;
    }
}

bool
is64BitInt(const Type *type)
{
    return type && (type->kind() == TypeKind::Long ||
                    type->kind() == TypeKind::ULong);
}

} // namespace

void
WidenMulPass::run(FunctionDecl &func, const Traits &) const
{
    if (!func.body)
        return;

    // 64-bit contexts whose operand is 32-bit signed arithmetic: the
    // implementation may perform that arithmetic directly in 64 bits
    // (signed overflow would be UB, so the wrapped 32-bit result is
    // not owed to anyone).
    walkSlots(*func.body, [](ExprPtr &expr) {
        switch (expr->kind()) {
          case ExprKind::Binary: {
            auto &bin = static_cast<BinaryExpr &>(*expr);
            if (is64BitInt(bin.type) && !isComparison(bin.op)) {
                markWiden(*bin.lhs);
                markWiden(*bin.rhs);
            }
            return;
          }
          case ExprKind::Assign: {
            auto &assign = static_cast<AssignExpr &>(*expr);
            if (is64BitInt(assign.target->type))
                markWiden(*assign.value);
            return;
          }
          case ExprKind::Cast: {
            auto &cast = static_cast<CastExpr &>(*expr);
            if (is64BitInt(cast.target))
                markWiden(*cast.operand);
            return;
          }
          default:
            return;
        }
    });

    // Declarations `long x = <int arithmetic>;`.
    forEachStmtList(*func.body, [](std::vector<StmtPtr> &list) {
        for (auto &stmt : list) {
            if (stmt->kind() != StmtKind::VarDecl)
                continue;
            auto &decl = static_cast<VarDeclStmt &>(*stmt);
            if (decl.init && is64BitInt(decl.declType))
                markWiden(*decl.init);
        }
    });
}

// ===================================================================
// DeadStoreElimPass
// ===================================================================

void
DeadStoreElimPass::run(FunctionDecl &func, const Traits &) const
{
    if (!func.body)
        return;

    const std::size_t num_locals = func.locals.size();
    std::vector<int> occurrences(num_locals, 0);
    std::vector<int> plain_targets(num_locals, 0);
    std::vector<bool> escaped(num_locals, false);

    walkSlots(*func.body, [&](ExprPtr &expr) {
        switch (expr->kind()) {
          case ExprKind::VarRef: {
            auto &ref = static_cast<VarRefExpr &>(*expr);
            if (!ref.isGlobal && ref.id >= 0 &&
                static_cast<std::size_t>(ref.id) < num_locals) {
                occurrences[static_cast<std::size_t>(ref.id)]++;
            }
            return;
          }
          case ExprKind::Assign: {
            auto &assign = static_cast<AssignExpr &>(*expr);
            if (!assign.compoundOp &&
                assign.target->kind() == ExprKind::VarRef) {
                auto &ref = static_cast<VarRefExpr &>(*assign.target);
                if (!ref.isGlobal && ref.id >= 0 &&
                    static_cast<std::size_t>(ref.id) < num_locals) {
                    plain_targets[static_cast<std::size_t>(ref.id)]++;
                }
            }
            return;
          }
          case ExprKind::Unary: {
            auto &un = static_cast<UnaryExpr &>(*expr);
            if (un.op == UnaryOp::AddrOf &&
                un.operand->kind() == ExprKind::VarRef) {
                auto &ref = static_cast<VarRefExpr &>(*un.operand);
                if (!ref.isGlobal && ref.id >= 0 &&
                    static_cast<std::size_t>(ref.id) < num_locals) {
                    escaped[static_cast<std::size_t>(ref.id)] = true;
                }
            }
            return;
          }
          default:
            return;
        }
    });

    auto is_dead = [&](int id) {
        if (id < 0 || static_cast<std::size_t>(id) >= num_locals)
            return false;
        const auto i = static_cast<std::size_t>(id);
        if (func.locals[i].isParam || escaped[i])
            return false;
        return occurrences[i] - plain_targets[i] <= 0;
    };

    forEachStmtList(*func.body, [&](std::vector<StmtPtr> &list) {
        for (std::size_t i = 0; i < list.size();) {
            Stmt &stmt = *list[i];
            bool erase = false;
            if (stmt.kind() == StmtKind::VarDecl) {
                auto &decl = static_cast<VarDeclStmt &>(stmt);
                if (decl.init && is_dead(decl.localId) &&
                    isPureExpr(*decl.init)) {
                    // The local stays in the frame (its slot ordering
                    // is a layout trait); only the store disappears.
                    decl.init.reset();
                }
            } else if (stmt.kind() == StmtKind::ExprStmt) {
                auto &es = static_cast<ExprStmt &>(stmt);
                if (isPureExpr(*es.expr)) {
                    // An unused pure computation; this includes
                    // `a / b;`, which removes a potential trap — the
                    // implementation may assume division never traps.
                    erase = true;
                } else if (es.expr->kind() == ExprKind::Assign) {
                    auto &assign = static_cast<AssignExpr &>(*es.expr);
                    if (!assign.compoundOp &&
                        assign.target->kind() == ExprKind::VarRef &&
                        isPureExpr(*assign.value)) {
                        auto &ref =
                            static_cast<VarRefExpr &>(*assign.target);
                        if (!ref.isGlobal && is_dead(ref.id))
                            erase = true;
                    }
                }
            }
            if (erase) {
                list.erase(list.begin() +
                           static_cast<std::ptrdiff_t>(i));
            } else {
                i++;
            }
        }
    });
}

// ===================================================================
// NullDerefExploitPass
// ===================================================================

namespace
{

enum class NullState
{
    Unknown,
    Null,
};

using NullFacts = std::map<int, NullState>;

bool
isNullLiteral(const Expr &expr)
{
    if (expr.kind() == ExprKind::IntLit)
        return static_cast<const IntLitExpr &>(expr).value == 0;
    if (expr.kind() == ExprKind::Cast) {
        return isNullLiteral(
            *static_cast<const CastExpr &>(expr).operand);
    }
    return false;
}

/** Collect local ids assigned anywhere in the subtree. */
void
collectAssigned(Stmt &stmt, std::vector<int> &out)
{
    walkSlots(stmt, [&](ExprPtr &expr) {
        if (expr->kind() != ExprKind::Assign)
            return;
        auto &assign = static_cast<AssignExpr &>(*expr);
        if (assign.target->kind() == ExprKind::VarRef) {
            auto &ref = static_cast<VarRefExpr &>(*assign.target);
            if (!ref.isGlobal)
                out.push_back(ref.id);
        }
    });
}

/** Is this expression a deref of a known-null local? */
bool
isNullDeref(const Expr &expr, const NullFacts &facts)
{
    auto var_is_null = [&](const Expr &e) {
        if (e.kind() != ExprKind::VarRef)
            return false;
        const auto &ref = static_cast<const VarRefExpr &>(e);
        if (ref.isGlobal)
            return false;
        auto it = facts.find(ref.id);
        return it != facts.end() && it->second == NullState::Null;
    };
    switch (expr.kind()) {
      case ExprKind::Unary: {
        const auto &un = static_cast<const UnaryExpr &>(expr);
        return un.op == UnaryOp::Deref && var_is_null(*un.operand);
      }
      case ExprKind::Index:
        return var_is_null(
            *static_cast<const IndexExpr &>(expr).base);
      case ExprKind::Member: {
        const auto &member = static_cast<const MemberExpr &>(expr);
        return member.isArrow && var_is_null(*member.base);
      }
      default:
        return false;
    }
}

/** Test an if-condition for `p == 0` / `!p` style null checks. */
const VarRefExpr *
condTestsNull(const Expr &cond, bool &null_in_then)
{
    if (cond.kind() == ExprKind::Unary) {
        const auto &un = static_cast<const UnaryExpr &>(cond);
        if (un.op == UnaryOp::LogNot &&
            un.operand->kind() == ExprKind::VarRef &&
            un.operand->type && un.operand->type->isPointer()) {
            null_in_then = true;
            return static_cast<const VarRefExpr *>(un.operand.get());
        }
        return nullptr;
    }
    if (cond.kind() != ExprKind::Binary)
        return nullptr;
    const auto &bin = static_cast<const BinaryExpr &>(cond);
    if (bin.op != BinaryOp::Eq && bin.op != BinaryOp::Ne)
        return nullptr;
    const Expr *var = nullptr;
    if (bin.lhs->kind() == ExprKind::VarRef && isNullLiteral(*bin.rhs))
        var = bin.lhs.get();
    else if (bin.rhs->kind() == ExprKind::VarRef &&
             isNullLiteral(*bin.lhs))
        var = bin.rhs.get();
    if (!var || !var->type || !var->type->isPointer())
        return nullptr;
    null_in_then = bin.op == BinaryOp::Eq;
    return static_cast<const VarRefExpr *>(var);
}

class NullExploiter
{
  public:
    void
    processList(std::vector<StmtPtr> &list, NullFacts &facts)
    {
        for (std::size_t i = 0; i < list.size();) {
            if (processStmt(list[i], facts)) {
                list.erase(list.begin() +
                           static_cast<std::ptrdiff_t>(i));
            } else {
                i++;
            }
        }
    }

  private:
    /** Returns true when the statement must be deleted. */
    bool
    processStmt(StmtPtr &stmt, NullFacts &facts)
    {
        switch (stmt->kind()) {
          case StmtKind::VarDecl: {
            auto &decl = static_cast<VarDeclStmt &>(*stmt);
            if (decl.init)
                rewriteLoads(decl.init, facts);
            if (decl.declType->isPointer()) {
                facts[decl.localId] = decl.init &&
                                              isNullLiteral(*decl.init)
                                          ? NullState::Null
                                          : NullState::Unknown;
            }
            return false;
          }
          case StmtKind::ExprStmt: {
            auto &es = static_cast<ExprStmt &>(*stmt);
            // A store through a null pointer is unreachable: the
            // whole statement is elided.
            if (es.expr->kind() == ExprKind::Assign) {
                auto &assign = static_cast<AssignExpr &>(*es.expr);
                if (isNullDeref(*assign.target, facts) &&
                    isPureExpr(*assign.value)) {
                    return true;
                }
            }
            rewriteLoads(es.expr, facts);
            updateFacts(*es.expr, facts);
            return false;
          }
          case StmtKind::If: {
            auto &if_stmt = static_cast<IfStmt &>(*stmt);
            rewriteLoads(if_stmt.cond, facts);
            bool null_in_then = false;
            const VarRefExpr *tested =
                condTestsNull(*if_stmt.cond, null_in_then);

            NullFacts then_facts = facts;
            NullFacts else_facts = facts;
            if (tested) {
                if (null_in_then) {
                    then_facts[tested->id] = NullState::Null;
                    else_facts.erase(tested->id);
                } else {
                    then_facts.erase(tested->id);
                    else_facts[tested->id] = NullState::Null;
                }
            }
            processBranch(if_stmt.thenStmt, then_facts);
            if (if_stmt.elseStmt)
                processBranch(if_stmt.elseStmt, else_facts);

            std::vector<int> assigned;
            collectAssigned(*stmt, assigned);
            for (int id : assigned)
                facts.erase(id);
            return false;
          }
          case StmtKind::While: {
            auto &while_stmt = static_cast<WhileStmt &>(*stmt);
            NullFacts body_facts; // conservative: no facts in loops
            processBranch(while_stmt.body, body_facts);
            std::vector<int> assigned;
            collectAssigned(*stmt, assigned);
            for (int id : assigned)
                facts.erase(id);
            return false;
          }
          case StmtKind::For: {
            auto &for_stmt = static_cast<ForStmt &>(*stmt);
            NullFacts body_facts;
            processBranch(for_stmt.body, body_facts);
            std::vector<int> assigned;
            collectAssigned(*stmt, assigned);
            for (int id : assigned)
                facts.erase(id);
            return false;
          }
          case StmtKind::Block: {
            auto &block = static_cast<BlockStmt &>(*stmt);
            processList(block.body, facts);
            return false;
          }
          case StmtKind::Return: {
            auto &ret = static_cast<ReturnStmt &>(*stmt);
            if (ret.value)
                rewriteLoads(ret.value, facts);
            return false;
          }
          default:
            return false;
        }
    }

    void
    processBranch(StmtPtr &stmt, NullFacts &facts)
    {
        if (stmt->kind() == StmtKind::Block) {
            processList(static_cast<BlockStmt &>(*stmt).body, facts);
        } else {
            if (processStmt(stmt, facts)) {
                // Replace a deleted single-statement body with an
                // empty block.
                stmt = std::make_unique<BlockStmt>(stmt->loc());
            }
        }
    }

    /** Replace loads through known-null pointers with undef (0). */
    void
    rewriteLoads(ExprPtr &root, const NullFacts &facts)
    {
        walkSlots(root, [&](ExprPtr &expr) {
            // Never rewrite the *target* of an assignment here; store
            // elision is handled at statement level.
            if (isNullDeref(*expr, facts) && expr->type &&
                !expr->type->isStruct()) {
                if (expr->type->isDouble()) {
                    auto lit = std::make_unique<FloatLitExpr>(
                        expr->loc(), 0.0);
                    lit->type = expr->type;
                    expr = std::move(lit);
                } else {
                    expr = makeIntLit(expr->loc(), 0, expr->type);
                }
            }
        });
    }

    /** Update null facts from assignments in an expression. */
    void
    updateFacts(Expr &expr, NullFacts &facts)
    {
        if (expr.kind() != ExprKind::Assign)
            return;
        auto &assign = static_cast<AssignExpr &>(expr);
        if (assign.target->kind() != ExprKind::VarRef)
            return;
        auto &ref = static_cast<VarRefExpr &>(*assign.target);
        if (ref.isGlobal || !ref.type || !ref.type->isPointer())
            return;
        if (!assign.compoundOp && isNullLiteral(*assign.value))
            facts[ref.id] = NullState::Null;
        else
            facts.erase(ref.id);
    }
};

} // namespace

void
NullDerefExploitPass::run(FunctionDecl &func, const Traits &) const
{
    if (!func.body)
        return;
    NullExploiter exploiter;
    NullFacts facts;
    exploiter.processList(func.body->body, facts);
}

// ===================================================================
// SeededMiscompilePass
// ===================================================================

void
SeededMiscompilePass::run(FunctionDecl &func,
                          const Traits &traits) const
{
    if (!func.body)
        return;
    walkSlots(*func.body, [&](ExprPtr &expr) {
        if (expr->kind() != ExprKind::Binary)
            return;
        auto &bin = static_cast<BinaryExpr &>(*expr);

        // Defect 1 (clang-sim O2/O3): strength-reduce `x % 8` to
        // `x & 7` for *signed* x, forgetting the negative fixup.
        if (traits.bugRemPow2 && bin.op == BinaryOp::Rem &&
            isSignedInt32(bin.type) &&
            bin.rhs->kind() == ExprKind::IntLit &&
            static_cast<IntLitExpr &>(*bin.rhs).value == 8) {
            auto mask = std::make_unique<BinaryExpr>(
                bin.loc(), BinaryOp::BitAnd, std::move(bin.lhs),
                makeIntLit(bin.loc(), 7, bin.type));
            mask->type = bin.type;
            expr = std::move(mask);
            return;
        }

        // Defect 2 (gcc-sim Os): strength-reduce `x / 32` to
        // `x >> 5` for signed x, forgetting round-toward-zero.
        if (traits.bugDiv32Shift && bin.op == BinaryOp::Div &&
            isSignedInt32(bin.type) &&
            bin.rhs->kind() == ExprKind::IntLit &&
            static_cast<IntLitExpr &>(*bin.rhs).value == 32) {
            auto shift = std::make_unique<BinaryExpr>(
                bin.loc(), BinaryOp::Shr, std::move(bin.lhs),
                makeIntLit(bin.loc(), 5, bin.type));
            shift->type = bin.type;
            expr = std::move(shift);
            return;
        }

        // Defect 3 (gcc-sim O3): "empty range" unswitching with an
        // off-by-one: folds `x < C && x > C-2` to 0, although x can
        // equal C-1.
        if (traits.bugEmptyRange && bin.op == BinaryOp::LogAnd &&
            bin.lhs->kind() == ExprKind::Binary &&
            bin.rhs->kind() == ExprKind::Binary) {
            auto &lt = static_cast<BinaryExpr &>(*bin.lhs);
            auto &gt = static_cast<BinaryExpr &>(*bin.rhs);
            if (lt.op == BinaryOp::Lt && gt.op == BinaryOp::Gt &&
                lt.rhs->kind() == ExprKind::IntLit &&
                gt.rhs->kind() == ExprKind::IntLit &&
                isPureExpr(*lt.lhs) &&
                pureExprEquals(*lt.lhs, *gt.lhs)) {
                const auto c1 =
                    static_cast<IntLitExpr &>(*lt.rhs).value;
                const auto c2 =
                    static_cast<IntLitExpr &>(*gt.rhs).value;
                if (c2 == c1 - 2)
                    expr = makeIntLit(bin.loc(), 0, bin.type);
            }
        }
    });
}

// ===================================================================
// Pass registry
// ===================================================================

const std::vector<std::unique_ptr<Pass>> &
standardPasses()
{
    static const auto passes = [] {
        std::vector<std::unique_ptr<Pass>> p;
        p.push_back(std::make_unique<ConstFoldPass>());
        p.push_back(std::make_unique<AlwaysTrueIncCmpPass>());
        p.push_back(std::make_unique<UbGuardFoldPass>());
        p.push_back(std::make_unique<WidenMulPass>());
        p.push_back(std::make_unique<NullDerefExploitPass>());
        p.push_back(std::make_unique<DeadStoreElimPass>());
        p.push_back(std::make_unique<SeededMiscompilePass>());
        return p;
    }();
    return passes;
}

} // namespace compdiff::compiler
