#include "analysis/static_analyzer.hh"

#include <map>
#include <set>
#include <sstream>

namespace compdiff::analysis
{

using namespace minic;

const char *
findingKindName(FindingKind kind)
{
    switch (kind) {
      case FindingKind::BufferOverflow: return "buffer-overflow";
      case FindingKind::UninitRead: return "uninitialized-read";
      case FindingKind::DivByZero: return "division-by-zero";
      case FindingKind::NullDeref: return "null-dereference";
      case FindingKind::IntOverflow: return "integer-overflow";
      case FindingKind::DoubleFree: return "double-free";
      case FindingKind::InvalidFree: return "invalid-free";
      case FindingKind::UseAfterFree: return "use-after-free";
      case FindingKind::ArgMismatch: return "argument-mismatch";
      case FindingKind::ApiMisuse: return "api-misuse";
      case FindingKind::BadShift: return "bad-shift";
    }
    return "?";
}

std::string
Finding::str() const
{
    std::ostringstream os;
    os << tool << ": " << findingKindName(kind) << " in "
       << function << " at " << loc.str() << ": " << message;
    return os.str();
}

namespace
{

/** Precision/aggressiveness knobs distinguishing the three tools. */
struct Capabilities
{
    bool constGuards = true;
    bool branchGuards = false;
    bool loopIntervals = false;
    bool interprocConst = false;
    bool taintTracking = false;
    bool flagUnknownOverflow = false;
    bool flagTaintedIndex = false;
};

/** The abstract value domain. */
struct AbsVal
{
    bool maybeUninit = false;
    bool tainted = false;
    bool hasRange = false;
    std::int64_t lo = 0;
    std::int64_t hi = 0;

    enum class Nullness
    {
        Unknown,
        Null,
        NonNull,
    } nullness = Nullness::Unknown;

    /** Byte size of the pointed-to object; -1 unknown. */
    std::int64_t pointeeSize = -1;
    /** Identity of the pointed-to allocation; -1 unknown. */
    int allocId = -1;
    bool pointsToNonHeap = false;
    /** Byte-offset range of this pointer within its object. */
    std::int64_t offLo = 0;
    std::int64_t offHi = 0;

    bool
    isConst() const
    {
        return hasRange && lo == hi;
    }

    static AbsVal
    constant(std::int64_t v)
    {
        AbsVal out;
        out.hasRange = true;
        out.lo = out.hi = v;
        out.nullness = v == 0 ? Nullness::Null : Nullness::NonNull;
        return out;
    }

    static AbsVal
    range(std::int64_t lo, std::int64_t hi, bool tainted = false)
    {
        AbsVal out;
        out.hasRange = true;
        out.lo = lo;
        out.hi = hi;
        out.tainted = tainted;
        return out;
    }

    static AbsVal
    top()
    {
        return AbsVal{};
    }
};

/** Join two abstract values at a control-flow merge. */
AbsVal
join(const AbsVal &a, const AbsVal &b)
{
    AbsVal out;
    out.maybeUninit = a.maybeUninit || b.maybeUninit;
    out.tainted = a.tainted || b.tainted;
    if (a.hasRange && b.hasRange) {
        out.hasRange = true;
        out.lo = std::min(a.lo, b.lo);
        out.hi = std::max(a.hi, b.hi);
    }
    out.nullness = a.nullness == b.nullness ? a.nullness
                                            : AbsVal::Nullness::Unknown;
    if (a.allocId == b.allocId) {
        out.allocId = a.allocId;
        out.pointeeSize =
            a.pointeeSize == b.pointeeSize ? a.pointeeSize : -1;
        out.pointsToNonHeap = a.pointsToNonHeap || b.pointsToNonHeap;
        out.offLo = std::min(a.offLo, b.offLo);
        out.offHi = std::max(a.offHi, b.offHi);
    }
    return out;
}

/**
 * Is a + b > c, exactly? An int64_t sum that overflows lies beyond
 * every int64_t in the direction of b's sign.
 */
bool
sumExceeds(std::int64_t a, std::int64_t b, std::int64_t c)
{
    std::int64_t sum = 0;
    if (__builtin_add_overflow(a, b, &sum))
        return b > 0;
    return sum > c;
}

using Env = std::map<int, AbsVal>;

/**
 * The shared abstract-interpretation engine, instantiated with a
 * tool name and capabilities.
 */
class Engine : public StaticAnalyzer
{
  public:
    Engine(const char *tool_name, Capabilities caps)
        : tool_(tool_name), caps_(caps)
    {}

    const char *name() const override { return tool_; }

    std::vector<Finding>
    analyze(const Program &program) const override
    {
        Run run(program, tool_, caps_);
        for (const auto &func : program.functions)
            run.analyzeFunction(*func, nullptr, 0);
        return std::move(run.findings);
    }

  private:
    struct Run
    {
        Run(const Program &program, const char *tool,
            Capabilities caps)
            : program(program), tool(tool), caps(caps)
        {}

        const Program &program;
        const char *tool;
        Capabilities caps;
        int depth = 0;
        std::vector<Finding> findings;
        std::set<std::string> seen;
        std::set<int> freedAllocs;
        int nextAllocId = 1000; // malloc-site ids above local ids

        const FunctionDecl *curFunc = nullptr;

        void
        report(FindingKind kind, SourceLoc loc,
               const std::string &message)
        {
            std::ostringstream key;
            key << tool << "|" << static_cast<int>(kind) << "|"
                << curFunc->name << "|" << loc.line;
            if (!seen.insert(key.str()).second)
                return;
            findings.push_back(
                {tool, kind, curFunc->name, loc, message});
        }

        // -------------------------------------------------------
        void
        analyzeFunction(const FunctionDecl &func, const Env *bound,
                        int call_depth)
        {
            if (!func.body || call_depth > 1)
                return;
            const int prev_depth = depth;
            depth = call_depth;
            const FunctionDecl *prev = curFunc;
            curFunc = &func;
            Env env;
            for (const auto &param : func.params) {
                AbsVal v = AbsVal::top();
                if (bound) {
                    auto it = bound->find(param.localId);
                    if (it != bound->end())
                        v = it->second;
                }
                env[param.localId] = v;
            }
            freedAllocs.clear();
            analyzeStmtList(func.body->body, env);
            curFunc = prev;
            depth = prev_depth;
        }

        void
        analyzeStmtList(const std::vector<StmtPtr> &list, Env &env)
        {
            for (const auto &stmt : list)
                analyzeStmt(*stmt, env);
        }

        void
        analyzeStmt(const Stmt &stmt, Env &env)
        {
            switch (stmt.kind()) {
              case StmtKind::Block:
                analyzeStmtList(
                    static_cast<const BlockStmt &>(stmt).body, env);
                return;
              case StmtKind::VarDecl: {
                const auto &decl =
                    static_cast<const VarDeclStmt &>(stmt);
                AbsVal v;
                if (decl.init) {
                    v = evalExpr(*decl.init, env);
                } else if (decl.declType->isArray() ||
                           decl.declType->isStruct()) {
                    v = AbsVal::top(); // storage, address is defined
                } else {
                    v.maybeUninit = true;
                }
                env[decl.localId] = v;
                return;
              }
              case StmtKind::If: {
                const auto &if_stmt =
                    static_cast<const IfStmt &>(stmt);
                AbsVal cond = evalExpr(*if_stmt.cond, env);
                if (caps.constGuards && cond.isConst()) {
                    if (cond.lo != 0) {
                        analyzeStmt(*if_stmt.thenStmt, env);
                    } else if (if_stmt.elseStmt) {
                        analyzeStmt(*if_stmt.elseStmt, env);
                    }
                    return;
                }
                Env then_env = env;
                Env else_env = env;
                if (caps.branchGuards) {
                    refineByCond(*if_stmt.cond, then_env, true);
                    refineByCond(*if_stmt.cond, else_env, false);
                }
                analyzeStmt(*if_stmt.thenStmt, then_env);
                if (if_stmt.elseStmt)
                    analyzeStmt(*if_stmt.elseStmt, else_env);
                env = mergeEnvs(then_env, else_env);
                return;
              }
              case StmtKind::While: {
                const auto &while_stmt =
                    static_cast<const WhileStmt &>(stmt);
                Env body_env = env;
                havocAssigned(*while_stmt.body, body_env);
                evalExpr(*while_stmt.cond, body_env);
                analyzeStmt(*while_stmt.body, body_env);
                havocAssigned(*while_stmt.body, env);
                return;
              }
              case StmtKind::For: {
                const auto &for_stmt =
                    static_cast<const ForStmt &>(stmt);
                if (for_stmt.init)
                    analyzeStmt(*for_stmt.init, env);
                Env body_env = env;
                havocAssigned(*for_stmt.body, body_env);

                // Loop-interval modeling: for (i = C1; i < C2; i+=C3)
                if (caps.loopIntervals) {
                    applyLoopInterval(for_stmt, body_env);
                }
                if (for_stmt.cond)
                    evalExpr(*for_stmt.cond, body_env);
                analyzeStmt(*for_stmt.body, body_env);
                if (for_stmt.step)
                    evalExpr(*for_stmt.step, body_env);
                havocAssigned(*for_stmt.body, env);
                if (for_stmt.step) {
                    Env scratch = env;
                    evalExpr(*for_stmt.step, scratch);
                    havocExprAssigned(*for_stmt.step, env);
                }
                return;
              }
              case StmtKind::Return: {
                const auto &ret =
                    static_cast<const ReturnStmt &>(stmt);
                if (ret.value)
                    evalExpr(*ret.value, env);
                return;
              }
              case StmtKind::ExprStmt:
                evalExpr(*static_cast<const ExprStmt &>(stmt).expr,
                         env);
                return;
              default:
                return;
            }
        }

        void
        applyLoopInterval(const ForStmt &for_stmt, Env &env)
        {
            if (!for_stmt.init || !for_stmt.cond)
                return;
            int var = -1;
            std::int64_t start = 0;
            if (for_stmt.init->kind() == StmtKind::VarDecl) {
                const auto &decl = static_cast<const VarDeclStmt &>(
                    *for_stmt.init);
                if (!decl.init ||
                    decl.init->kind() != ExprKind::IntLit)
                    return;
                var = decl.localId;
                start =
                    static_cast<const IntLitExpr &>(*decl.init).value;
            } else if (for_stmt.init->kind() == StmtKind::ExprStmt) {
                const auto &es = static_cast<const ExprStmt &>(
                    *for_stmt.init);
                if (es.expr->kind() != ExprKind::Assign)
                    return;
                const auto &assign =
                    static_cast<const AssignExpr &>(*es.expr);
                if (assign.compoundOp ||
                    assign.target->kind() != ExprKind::VarRef ||
                    assign.value->kind() != ExprKind::IntLit)
                    return;
                var = static_cast<const VarRefExpr &>(*assign.target)
                          .id;
                start = static_cast<const IntLitExpr &>(*assign.value)
                            .value;
            } else {
                return;
            }

            if (for_stmt.cond->kind() != ExprKind::Binary)
                return;
            const auto &cond =
                static_cast<const BinaryExpr &>(*for_stmt.cond);
            if (cond.lhs->kind() != ExprKind::VarRef ||
                static_cast<const VarRefExpr &>(*cond.lhs).id != var ||
                cond.rhs->kind() != ExprKind::IntLit)
                return;
            const std::int64_t bound =
                static_cast<const IntLitExpr &>(*cond.rhs).value;
            std::int64_t hi;
            if (cond.op == BinaryOp::Lt)
                hi = bound - 1;
            else if (cond.op == BinaryOp::Le)
                hi = bound;
            else
                return;
            env[var] = AbsVal::range(start, std::max(start, hi));
        }

        Env
        mergeEnvs(const Env &a, const Env &b)
        {
            Env out;
            for (const auto &[id, val] : a) {
                auto it = b.find(id);
                out[id] = it == b.end() ? val : join(val, it->second);
            }
            for (const auto &[id, val] : b)
                if (!out.count(id))
                    out[id] = val;
            return out;
        }

        void
        havocAssigned(const Stmt &stmt, Env &env)
        {
            collectAssignedInto(stmt, env);
        }

        void
        collectAssignedInto(const Stmt &stmt, Env &env)
        {
            switch (stmt.kind()) {
              case StmtKind::Block:
                for (const auto &child :
                     static_cast<const BlockStmt &>(stmt).body)
                    collectAssignedInto(*child, env);
                return;
              case StmtKind::VarDecl:
                return; // scoped inside
              case StmtKind::If: {
                const auto &if_stmt =
                    static_cast<const IfStmt &>(stmt);
                collectAssignedInto(*if_stmt.thenStmt, env);
                if (if_stmt.elseStmt)
                    collectAssignedInto(*if_stmt.elseStmt, env);
                havocExprAssigned(*if_stmt.cond, env);
                return;
              }
              case StmtKind::While: {
                const auto &ws = static_cast<const WhileStmt &>(stmt);
                collectAssignedInto(*ws.body, env);
                havocExprAssigned(*ws.cond, env);
                return;
              }
              case StmtKind::For: {
                const auto &fs = static_cast<const ForStmt &>(stmt);
                collectAssignedInto(*fs.body, env);
                if (fs.step)
                    havocExprAssigned(*fs.step, env);
                return;
              }
              case StmtKind::ExprStmt:
                havocExprAssigned(
                    *static_cast<const ExprStmt &>(stmt).expr, env);
                return;
              case StmtKind::Return: {
                const auto &ret =
                    static_cast<const ReturnStmt &>(stmt);
                if (ret.value)
                    havocExprAssigned(*ret.value, env);
                return;
              }
              default:
                return;
            }
        }

        void
        havocExprAssigned(const Expr &expr, Env &env)
        {
            if (expr.kind() == ExprKind::Assign) {
                const auto &assign =
                    static_cast<const AssignExpr &>(expr);
                if (assign.target->kind() == ExprKind::VarRef) {
                    const auto &ref = static_cast<const VarRefExpr &>(
                        *assign.target);
                    if (!ref.isGlobal)
                        env[ref.id] = AbsVal::top();
                }
                havocExprAssigned(*assign.value, env);
                return;
            }
            // Recurse shallowly over children.
            switch (expr.kind()) {
              case ExprKind::Unary:
                havocExprAssigned(
                    *static_cast<const UnaryExpr &>(expr).operand,
                    env);
                return;
              case ExprKind::Binary: {
                const auto &bin =
                    static_cast<const BinaryExpr &>(expr);
                havocExprAssigned(*bin.lhs, env);
                havocExprAssigned(*bin.rhs, env);
                return;
              }
              case ExprKind::Call: {
                const auto &call =
                    static_cast<const CallExpr &>(expr);
                for (const auto &arg : call.args)
                    havocExprAssigned(*arg, env);
                return;
              }
              case ExprKind::Index: {
                const auto &index =
                    static_cast<const IndexExpr &>(expr);
                havocExprAssigned(*index.base, env);
                havocExprAssigned(*index.index, env);
                return;
              }
              case ExprKind::Cond: {
                const auto &cond =
                    static_cast<const CondExpr &>(expr);
                havocExprAssigned(*cond.cond, env);
                havocExprAssigned(*cond.thenExpr, env);
                havocExprAssigned(*cond.elseExpr, env);
                return;
              }
              case ExprKind::Cast:
                havocExprAssigned(
                    *static_cast<const CastExpr &>(expr).operand,
                    env);
                return;
              case ExprKind::Member:
                havocExprAssigned(
                    *static_cast<const MemberExpr &>(expr).base, env);
                return;
              default:
                return;
            }
        }

        /** Refine env from a branch condition (branchGuards). */
        void
        refineByCond(const Expr &cond, Env &env, bool taken)
        {
            if (cond.kind() == ExprKind::Unary) {
                const auto &un = static_cast<const UnaryExpr &>(cond);
                if (un.op == UnaryOp::LogNot)
                    refineByCond(*un.operand, env, !taken);
                return;
            }
            if (cond.kind() == ExprKind::VarRef) {
                const auto &ref =
                    static_cast<const VarRefExpr &>(cond);
                if (!ref.isGlobal && ref.type &&
                    ref.type->isPointer()) {
                    env[ref.id].nullness =
                        taken ? AbsVal::Nullness::NonNull
                              : AbsVal::Nullness::Null;
                }
                return;
            }
            if (cond.kind() != ExprKind::Binary)
                return;
            const auto &bin = static_cast<const BinaryExpr &>(cond);

            if (bin.op == BinaryOp::LogAnd && taken) {
                refineByCond(*bin.lhs, env, true);
                refineByCond(*bin.rhs, env, true);
                return;
            }
            if (bin.op == BinaryOp::LogOr && !taken) {
                refineByCond(*bin.lhs, env, false);
                refineByCond(*bin.rhs, env, false);
                return;
            }

            // x cmp C patterns.
            if (bin.lhs->kind() == ExprKind::VarRef &&
                bin.rhs->kind() == ExprKind::IntLit) {
                const auto &ref =
                    static_cast<const VarRefExpr &>(*bin.lhs);
                if (ref.isGlobal)
                    return;
                const std::int64_t c =
                    static_cast<const IntLitExpr &>(*bin.rhs).value;
                AbsVal &v = env[ref.id];
                // Null tests on pointers.
                if (ref.type && ref.type->isPointer() && c == 0) {
                    const bool eq = bin.op == BinaryOp::Eq;
                    const bool ne = bin.op == BinaryOp::Ne;
                    if (eq || ne) {
                        const bool is_null = eq == taken;
                        v.nullness = is_null
                                         ? AbsVal::Nullness::Null
                                         : AbsVal::Nullness::NonNull;
                    }
                    return;
                }
                std::int64_t lo = v.hasRange ? v.lo : INT32_MIN;
                std::int64_t hi = v.hasRange ? v.hi : INT32_MAX;
                BinaryOp op = bin.op;
                if (!taken) {
                    switch (op) {
                      case BinaryOp::Lt: op = BinaryOp::Ge; break;
                      case BinaryOp::Le: op = BinaryOp::Gt; break;
                      case BinaryOp::Gt: op = BinaryOp::Le; break;
                      case BinaryOp::Ge: op = BinaryOp::Lt; break;
                      case BinaryOp::Eq: op = BinaryOp::Ne; break;
                      case BinaryOp::Ne: op = BinaryOp::Eq; break;
                      default: return;
                    }
                }
                // c - 1 and c + 1 overflow only where the branch
                // cannot be taken (x < INT64_MIN, x > INT64_MAX); the
                // value is then left unrefined.
                std::int64_t bound = 0;
                switch (op) {
                  case BinaryOp::Lt:
                    if (__builtin_sub_overflow(c, 1, &bound))
                        return;
                    hi = std::min(hi, bound);
                    break;
                  case BinaryOp::Le: hi = std::min(hi, c); break;
                  case BinaryOp::Gt:
                    if (__builtin_add_overflow(c, 1, &bound))
                        return;
                    lo = std::max(lo, bound);
                    break;
                  case BinaryOp::Ge: lo = std::max(lo, c); break;
                  case BinaryOp::Eq: lo = hi = c; break;
                  case BinaryOp::Ne: return;
                  default: return;
                }
                if (lo <= hi) {
                    const bool was_tainted = v.tainted;
                    v = AbsVal::range(lo, hi, was_tainted);
                }
            }
        }

        // --- expression evaluation + checks ----------------------
        AbsVal
        evalExpr(const Expr &expr, Env &env)
        {
            switch (expr.kind()) {
              case ExprKind::IntLit:
                return AbsVal::constant(
                    static_cast<const IntLitExpr &>(expr).value);
              case ExprKind::FloatLit:
                return AbsVal::top();
              case ExprKind::StrLit: {
                AbsVal v;
                v.nullness = AbsVal::Nullness::NonNull;
                v.pointeeSize = static_cast<std::int64_t>(
                    static_cast<const StrLitExpr &>(expr)
                        .bytes.size() +
                    1);
                v.allocId = -1;
                return v;
              }
              case ExprKind::VarRef: {
                const auto &ref =
                    static_cast<const VarRefExpr &>(expr);
                if (ref.isGlobal) {
                    AbsVal v = AbsVal::top();
                    if (ref.type && (ref.type->isArray() ||
                                     ref.type->isStruct())) {
                        v.pointeeSize = static_cast<std::int64_t>(
                            ref.type->size());
                        v.allocId = -100 - ref.id;
                        v.pointsToNonHeap = true;
                        v.nullness = AbsVal::Nullness::NonNull;
                    }
                    return v;
                }
                auto it = env.find(ref.id);
                AbsVal v =
                    it == env.end() ? AbsVal::top() : it->second;
                if (ref.type && (ref.type->isArray() ||
                                 ref.type->isStruct())) {
                    v.pointeeSize =
                        static_cast<std::int64_t>(ref.type->size());
                    v.allocId = ref.id;
                    v.pointsToNonHeap = true;
                    v.nullness = AbsVal::Nullness::NonNull;
                    v.maybeUninit = false;
                    v.offLo = v.offHi = 0;
                    return v;
                }
                if (v.maybeUninit && expr.type &&
                    expr.type->isArithmetic()) {
                    report(FindingKind::UninitRead, expr.loc(),
                           "variable '" + ref.name +
                               "' may be used uninitialized");
                }
                return v;
              }
              case ExprKind::Unary:
                return evalUnary(
                    static_cast<const UnaryExpr &>(expr), env);
              case ExprKind::Binary:
                return evalBinary(
                    static_cast<const BinaryExpr &>(expr), env);
              case ExprKind::Assign:
                return evalAssign(
                    static_cast<const AssignExpr &>(expr), env);
              case ExprKind::Cond: {
                const auto &cond =
                    static_cast<const CondExpr &>(expr);
                evalExpr(*cond.cond, env);
                AbsVal a = evalExpr(*cond.thenExpr, env);
                AbsVal b = evalExpr(*cond.elseExpr, env);
                return join(a, b);
              }
              case ExprKind::Call:
                return evalCall(
                    static_cast<const CallExpr &>(expr), env);
              case ExprKind::Index: {
                const auto &index =
                    static_cast<const IndexExpr &>(expr);
                AbsVal base = evalExpr(*index.base, env);
                AbsVal idx = evalExpr(*index.index, env);
                const std::int64_t elem =
                    expr.type
                        ? static_cast<std::int64_t>(
                              std::max<std::uint64_t>(
                                  expr.type->size(), 1))
                        : 1;
                checkAccess(base, idx, elem, expr.loc());
                AbsVal out = AbsVal::top();
                out.tainted = base.tainted || idx.tainted;
                return out;
              }
              case ExprKind::Member: {
                const auto &member =
                    static_cast<const MemberExpr &>(expr);
                AbsVal base = evalExpr(*member.base, env);
                if (member.isArrow)
                    checkDeref(base, expr.loc());
                return AbsVal::top();
              }
              case ExprKind::Cast: {
                const auto &cast =
                    static_cast<const CastExpr &>(expr);
                return evalExpr(*cast.operand, env);
              }
              case ExprKind::SizeOf:
                return AbsVal::constant(static_cast<std::int64_t>(
                    static_cast<const SizeOfExpr &>(expr)
                        .queried->size()));
            }
            return AbsVal::top();
        }

        void
        checkDeref(const AbsVal &ptr, SourceLoc loc)
        {
            if (ptr.nullness == AbsVal::Nullness::Null) {
                report(FindingKind::NullDeref, loc,
                       "dereference of null pointer");
            }
            if (ptr.allocId >= 0 && freedAllocs.count(ptr.allocId)) {
                report(FindingKind::UseAfterFree, loc,
                       "use of freed memory");
            }
        }

        /** Bounds check for base[idx] with element size `elem`. */
        void
        checkAccess(const AbsVal &base, const AbsVal &idx,
                    std::int64_t elem, SourceLoc loc)
        {
            checkDeref(base, loc);
            if (base.pointeeSize < 0)
                return;
            const std::int64_t size = base.pointeeSize;
            // Offsets that overflow int64_t have no range.
            std::int64_t lo_off = 0, hi_off = 0;
            const bool offsets_fit =
                idx.hasRange &&
                !__builtin_mul_overflow(idx.lo, elem, &lo_off) &&
                !__builtin_add_overflow(base.offLo, lo_off, &lo_off) &&
                !__builtin_mul_overflow(idx.hi, elem, &hi_off) &&
                !__builtin_add_overflow(base.offHi, hi_off, &hi_off) &&
                !__builtin_add_overflow(hi_off, elem - 1, &hi_off);
            if (offsets_fit) {
                const bool partially_out =
                    lo_off < 0 || hi_off >= size;
                if (lo_off >= size || hi_off < 0 ||
                    (partially_out && !idx.tainted)) {
                    // Untainted ranges come from constants, joins,
                    // or loop intervals and are treated as exact.
                    report(FindingKind::BufferOverflow, loc,
                           "index outside object bounds");
                    return;
                }
                if (partially_out && caps.flagTaintedIndex &&
                    idx.tainted) {
                    report(FindingKind::BufferOverflow, loc,
                           "possibly out-of-bounds tainted index");
                }
            } else if (caps.flagTaintedIndex && idx.tainted) {
                report(FindingKind::BufferOverflow, loc,
                       "unchecked tainted index");
            }
        }

        AbsVal
        evalUnary(const UnaryExpr &un, Env &env)
        {
            // &x is not a *read* of x — handle it before evaluating
            // the operand (which would flag uninitialized reads).
            if (un.op == UnaryOp::AddrOf &&
                un.operand->kind() == ExprKind::VarRef) {
                const auto &ref =
                    static_cast<const VarRefExpr &>(*un.operand);
                AbsVal out;
                out.nullness = AbsVal::Nullness::NonNull;
                out.pointeeSize =
                    ref.type
                        ? static_cast<std::int64_t>(ref.type->size())
                        : -1;
                out.allocId = ref.isGlobal ? -100 - ref.id : ref.id;
                out.pointsToNonHeap = true;
                // Escaping the address may initialize the object.
                if (!ref.isGlobal)
                    env[ref.id].maybeUninit = false;
                return out;
            }

            AbsVal v = evalExpr(*un.operand, env);
            switch (un.op) {
              case UnaryOp::Deref:
                checkAccess(v, AbsVal::constant(0),
                            un.type ? static_cast<std::int64_t>(
                                          std::max<std::uint64_t>(
                                              un.type->size(), 1))
                                    : 1,
                            un.loc());
                return AbsVal::top();
              case UnaryOp::AddrOf:
                return AbsVal::top(); // non-VarRef lvalues

              case UnaryOp::Neg: {
                if (!v.hasRange)
                    return v;
                std::int64_t lo = 0, hi = 0;
                if (__builtin_sub_overflow(0, v.hi, &lo) ||
                    __builtin_sub_overflow(0, v.lo, &hi)) {
                    AbsVal out = AbsVal::top();
                    out.tainted = v.tainted;
                    return out;
                }
                return AbsVal::range(lo, hi, v.tainted);
              }
              case UnaryOp::LogNot:
              case UnaryOp::BitNot: {
                AbsVal out = AbsVal::top();
                out.tainted = v.tainted;
                return out;
              }
            }
            return AbsVal::top();
        }

        AbsVal
        evalBinary(const BinaryExpr &bin, Env &env)
        {
            AbsVal a = evalExpr(*bin.lhs, env);
            AbsVal b = evalExpr(*bin.rhs, env);

            // Pointer arithmetic: shift the offset window.
            const bool a_ptr = bin.lhs->type &&
                               (bin.lhs->type->isPointer() ||
                                bin.lhs->type->isArray());
            if (a_ptr &&
                (bin.op == BinaryOp::Add || bin.op == BinaryOp::Sub) &&
                bin.rhs->type && bin.rhs->type->isInteger()) {
                AbsVal out = a;
                const std::int64_t elem =
                    bin.type && bin.type->isPointer()
                        ? static_cast<std::int64_t>(
                              std::max<std::uint64_t>(
                                  bin.type->pointee()->size(), 1))
                        : 1;
                // An offset that overflows int64_t is lost, as is one
                // with no range.
                std::int64_t dlo = 0, dhi = 0, off_lo = 0, off_hi = 0;
                bool fits = b.hasRange &&
                            !__builtin_mul_overflow(b.lo, elem, &dlo) &&
                            !__builtin_mul_overflow(b.hi, elem, &dhi);
                if (fits && bin.op == BinaryOp::Sub) {
                    fits = !__builtin_sub_overflow(0, dlo, &dlo) &&
                           !__builtin_sub_overflow(0, dhi, &dhi);
                }
                fits = fits &&
                       !__builtin_add_overflow(
                           out.offLo, std::min(dlo, dhi), &off_lo) &&
                       !__builtin_add_overflow(
                           out.offHi, std::max(dlo, dhi), &off_hi);
                if (fits) {
                    out.offLo = off_lo;
                    out.offHi = off_hi;
                } else {
                    out.offLo = INT32_MIN;
                    out.offHi = INT32_MAX;
                }
                out.tainted |= b.tainted;
                return out;
            }

            switch (bin.op) {
              case BinaryOp::Div:
              case BinaryOp::Rem: {
                if (b.isConst() && b.lo == 0) {
                    report(FindingKind::DivByZero, bin.loc(),
                           "division by constant zero");
                } else if (b.hasRange && b.lo <= 0 && b.hi >= 0 &&
                           caps.flagUnknownOverflow && b.tainted) {
                    report(FindingKind::DivByZero, bin.loc(),
                           "possible division by zero");
                }
                break;
              }
              case BinaryOp::Shl:
              case BinaryOp::Shr: {
                const std::int64_t width =
                    bin.type && !bin.type->is32OrNarrower() ? 64 : 32;
                if (b.isConst() && (b.lo < 0 || b.lo >= width)) {
                    report(FindingKind::BadShift, bin.loc(),
                           "shift count out of range");
                }
                break;
              }
              default:
                break;
            }

            AbsVal out = AbsVal::top();
            out.tainted = a.tainted || b.tainted;
            if (a.hasRange && b.hasRange) {
                bool ok = true;
                std::int64_t lo = 0, hi = 0;
                // A bound that overflows int64_t leaves the result
                // with no range (its taint is already set).
                switch (bin.op) {
                  case BinaryOp::Add:
                    ok = !__builtin_add_overflow(a.lo, b.lo, &lo) &&
                         !__builtin_add_overflow(a.hi, b.hi, &hi);
                    break;
                  case BinaryOp::Sub:
                    ok = !__builtin_sub_overflow(a.lo, b.hi, &lo) &&
                         !__builtin_sub_overflow(a.hi, b.lo, &hi);
                    break;
                  case BinaryOp::Mul: {
                    std::int64_t c[4] = {};
                    ok = !__builtin_mul_overflow(a.lo, b.lo, &c[0]) &&
                         !__builtin_mul_overflow(a.lo, b.hi, &c[1]) &&
                         !__builtin_mul_overflow(a.hi, b.lo, &c[2]) &&
                         !__builtin_mul_overflow(a.hi, b.hi, &c[3]);
                    lo = std::min(std::min(c[0], c[1]),
                                  std::min(c[2], c[3]));
                    hi = std::max(std::max(c[0], c[1]),
                                  std::max(c[2], c[3]));
                    break;
                  }
                  default:
                    ok = false;
                    break;
                }
                if (ok) {
                    out.hasRange = true;
                    out.lo = lo;
                    out.hi = hi;
                    // Overflow detection on 32-bit signed results.
                    if (bin.type &&
                        bin.type->kind() == TypeKind::Int) {
                        const bool definite = a.isConst() &&
                                              b.isConst() &&
                                              (lo > INT32_MAX ||
                                               hi < INT32_MIN);
                        const bool possible =
                            lo < INT32_MIN || hi > INT32_MAX;
                        if (definite) {
                            report(FindingKind::IntOverflow,
                                   bin.loc(),
                                   "signed overflow in constant "
                                   "arithmetic");
                        } else if (possible &&
                                   caps.flagUnknownOverflow &&
                                   out.tainted) {
                            report(FindingKind::IntOverflow,
                                   bin.loc(),
                                   "possible signed overflow");
                        }
                    }
                }
            } else if (caps.flagUnknownOverflow && out.tainted &&
                       bin.type &&
                       bin.type->kind() == TypeKind::Int &&
                       (bin.op == BinaryOp::Mul ||
                        bin.op == BinaryOp::Add)) {
                report(FindingKind::IntOverflow, bin.loc(),
                       "possible signed overflow on unchecked input");
            }
            if (isComparison(bin.op)) {
                // Fold constant comparisons (flag-guard variants
                // rely on this for constGuards precision).
                if (a.isConst() && b.isConst()) {
                    bool truth = false;
                    switch (bin.op) {
                      case BinaryOp::Lt: truth = a.lo < b.lo; break;
                      case BinaryOp::Le: truth = a.lo <= b.lo; break;
                      case BinaryOp::Gt: truth = a.lo > b.lo; break;
                      case BinaryOp::Ge: truth = a.lo >= b.lo; break;
                      case BinaryOp::Eq: truth = a.lo == b.lo; break;
                      case BinaryOp::Ne: truth = a.lo != b.lo; break;
                      default: break;
                    }
                    return AbsVal::constant(truth ? 1 : 0);
                }
                return AbsVal::range(0, 1, out.tainted);
            }
            return out;
        }

        AbsVal
        evalAssign(const AssignExpr &assign, Env &env)
        {
            AbsVal value = evalExpr(*assign.value, env);
            // Evaluate target subexpressions (index checks etc.)
            // without treating the read as a use.
            if (assign.target->kind() == ExprKind::VarRef) {
                const auto &ref =
                    static_cast<const VarRefExpr &>(*assign.target);
                if (!ref.isGlobal) {
                    if (assign.compoundOp) {
                        AbsVal old = env[ref.id];
                        if (old.maybeUninit && caps.constGuards) {
                            report(FindingKind::UninitRead,
                                   assign.loc(),
                                   "compound assignment reads "
                                   "uninitialized '" +
                                       ref.name + "'");
                        }
                        AbsVal out = AbsVal::top();
                        out.tainted = old.tainted || value.tainted;
                        env[ref.id] = out;
                        return out;
                    }
                    env[ref.id] = value;
                    return value;
                }
                return value;
            }
            evalExpr(*assign.target, env);
            return value;
        }

        AbsVal
        evalCall(const CallExpr &call, Env &env)
        {
            std::vector<AbsVal> args;
            args.reserve(call.args.size());
            for (const auto &arg : call.args)
                args.push_back(evalExpr(*arg, env));

            if (call.builtin != Builtin::None) {
                return evalBuiltin(call, args);
            }

            const auto &callee = *program.functions[
                static_cast<std::size_t>(call.funcIndex)];
            if (call.args.size() != callee.params.size()) {
                report(FindingKind::ArgMismatch, call.loc(),
                       "call to '" + call.callee + "' with " +
                           std::to_string(call.args.size()) +
                           " args, expected " +
                           std::to_string(callee.params.size()));
            }

            // Depth-1 constant-argument inlining (deepscan).
            if (caps.interprocConst && &callee != curFunc &&
                depth == 0) {
                bool all_const = !args.empty() || callee.params.empty();
                Env bound;
                for (std::size_t i = 0;
                     i < std::min(args.size(), callee.params.size());
                     i++) {
                    if (!args[i].isConst() &&
                        args[i].pointeeSize < 0) {
                        all_const = false;
                        break;
                    }
                    bound[callee.params[i].localId] = args[i];
                }
                if (all_const && callee.body &&
                    callee.body->body.size() <= 64) {
                    analyzeFunction(callee, &bound, 1);
                }
            }

            // Passing a pointer into a callee may initialize the
            // pointed-to object.
            for (const auto &arg : call.args) {
                if (arg->kind() == ExprKind::Unary) {
                    const auto &un =
                        static_cast<const UnaryExpr &>(*arg);
                    if (un.op == UnaryOp::AddrOf &&
                        un.operand->kind() == ExprKind::VarRef) {
                        const auto &ref =
                            static_cast<const VarRefExpr &>(
                                *un.operand);
                        if (!ref.isGlobal)
                            env[ref.id].maybeUninit = false;
                    }
                }
            }
            return AbsVal::top();
        }

        AbsVal
        evalBuiltin(const CallExpr &call, std::vector<AbsVal> &args)
        {
            switch (call.builtin) {
              case Builtin::Malloc: {
                AbsVal out;
                out.allocId = nextAllocId++;
                out.pointeeSize =
                    !args.empty() && args[0].isConst() ? args[0].lo
                                                       : -1;
                // malloc may fail; nullness stays Unknown.
                return out;
              }
              case Builtin::Free: {
                if (args.empty())
                    return AbsVal::top();
                const AbsVal &p = args[0];
                if (p.pointsToNonHeap) {
                    report(FindingKind::InvalidFree, call.loc(),
                           "free() of non-heap memory");
                } else if (p.allocId >= 0) {
                    if (!freedAllocs.insert(p.allocId).second) {
                        report(FindingKind::DoubleFree, call.loc(),
                               "double free");
                    }
                }
                return AbsVal::top();
              }
              case Builtin::Memcpy: {
                if (args.size() == 3 && args[0].allocId != -1 &&
                    args[0].allocId == args[1].allocId &&
                    args[2].isConst()) {
                    const std::int64_t n = args[2].lo;
                    const std::int64_t d0 = args[0].offLo;
                    const std::int64_t s0 = args[1].offLo;
                    if (args[0].isConst() || true) {
                        if (sumExceeds(s0, n, d0) &&
                            sumExceeds(d0, n, s0) && d0 != s0) {
                            report(FindingKind::ApiMisuse,
                                   call.loc(),
                                   "memcpy on overlapping ranges");
                        }
                    }
                }
                checkByteFill(args, call.loc());
                return AbsVal::top();
              }
              case Builtin::Memset:
                checkByteFill(args, call.loc());
                return AbsVal::top();
              case Builtin::Strcpy: {
                if (args.size() == 2 && args[0].pointeeSize >= 0 &&
                    args[1].pointeeSize >= 0 &&
                    args[1].pointeeSize >
                        args[0].pointeeSize - args[0].offLo) {
                    report(FindingKind::BufferOverflow, call.loc(),
                           "strcpy source larger than destination");
                }
                return AbsVal::top();
              }
              case Builtin::InputByte:
              case Builtin::ReadByte:
                // Only taint-tracking tools model input values.
                return caps.taintTracking
                           ? AbsVal::range(-1, 255, true)
                           : AbsVal::top();
              case Builtin::InputSize:
                return caps.taintTracking
                           ? AbsVal::range(0, 1 << 20, true)
                           : AbsVal::top();
              case Builtin::Strlen:
                return caps.taintTracking
                           ? AbsVal::range(0, 1 << 16, true)
                           : AbsVal::top();
              case Builtin::Strcmp:
                return AbsVal::range(-1, 1);
              case Builtin::CurLine:
                return AbsVal::range(1, 100000);
              default:
                return AbsVal::top();
            }
        }

        void
        checkByteFill(const std::vector<AbsVal> &args, SourceLoc loc)
        {
            // memset/memcpy length vs destination size.
            if (args.size() == 3 && args[0].pointeeSize >= 0 &&
                args[2].isConst()) {
                if (sumExceeds(args[0].offLo, args[2].lo,
                               args[0].pointeeSize)) {
                    report(FindingKind::BufferOverflow, loc,
                           "length exceeds destination size");
                }
            }
        }
    };

    const char *tool_;
    Capabilities caps_;
};

} // namespace

std::unique_ptr<StaticAnalyzer>
makeLintCheck()
{
    Capabilities caps;
    caps.constGuards = true;
    caps.branchGuards = false;
    caps.loopIntervals = false;
    caps.interprocConst = false;
    caps.taintTracking = false;
    caps.flagUnknownOverflow = false;
    caps.flagTaintedIndex = false;
    return std::make_unique<Engine>("lintcheck", caps);
}

std::unique_ptr<StaticAnalyzer>
makeInferLite()
{
    Capabilities caps;
    caps.constGuards = true;
    caps.branchGuards = false;
    caps.loopIntervals = true;
    caps.interprocConst = false;
    caps.taintTracking = true;
    caps.flagUnknownOverflow = true;
    caps.flagTaintedIndex = true;
    return std::make_unique<Engine>("inferlite", caps);
}

std::unique_ptr<StaticAnalyzer>
makeDeepScan()
{
    Capabilities caps;
    caps.constGuards = true;
    caps.branchGuards = true;
    caps.loopIntervals = true;
    caps.interprocConst = true;
    caps.taintTracking = true;
    caps.flagUnknownOverflow = false;
    caps.flagTaintedIndex = true;
    return std::make_unique<Engine>("deepscan", caps);
}

std::vector<std::unique_ptr<StaticAnalyzer>>
allStaticAnalyzers()
{
    std::vector<std::unique_ptr<StaticAnalyzer>> out;
    out.push_back(makeDeepScan());
    out.push_back(makeLintCheck());
    out.push_back(makeInferLite());
    return out;
}

} // namespace compdiff::analysis
