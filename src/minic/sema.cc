#include "minic/sema.hh"

#include <algorithm>

#include "support/logging.hh"

namespace compdiff::minic
{

bool
Sema::analyze(Program &program)
{
    program_ = &program;

    // Register globals first so functions can reference them.
    int next_global = 0;
    scopes_.clear();
    pushScope(); // global scope
    for (auto &global : program.globals) {
        if (lookup(global->name)) {
            diags_.error(global->loc,
                         "redefinition of '" + global->name + "'");
            continue;
        }
        global->globalId = next_global++;
        scopes_.back()[global->name] = {true, global->globalId,
                                        global->type};
        if (global->init) {
            const Type *init_type = analyzeExpr(*global->init);
            const ExprKind k = global->init->kind();
            if (k != ExprKind::IntLit && k != ExprKind::FloatLit &&
                k != ExprKind::StrLit) {
                diags_.error(global->loc,
                             "global initializer must be a literal");
            } else if (!implicitlyConvertible(init_type, decay(
                           global->type), global->init.get())) {
                diags_.error(global->loc,
                             "incompatible global initializer");
            }
        }
    }

    // Register function signatures before analyzing bodies so that
    // forward calls work.
    int next_func = 0;
    for (auto &func : program.functions) {
        if (builtinFromName(func->name) != Builtin::None) {
            diags_.error(func->loc, "'" + func->name +
                                        "' is a builtin name");
        }
        for (const auto &other : program.functions) {
            if (other.get() != func.get() && other->name == func->name &&
                other->index >= 0) {
                diags_.error(func->loc,
                             "redefinition of '" + func->name + "'");
            }
        }
        func->index = next_func++;
    }
    // Every run starts in main(): without one nothing could execute.
    const auto is_main = [](const auto &func) {
        return func->name == "main";
    };
    if (std::none_of(program.functions.begin(),
                     program.functions.end(), is_main))
        diags_.error({1, 1}, "no function 'main'");

    for (auto &func : program.functions)
        analyzeFunction(*func);

    popScope();
    program_ = nullptr;
    return !diags_.hasErrors();
}

void
Sema::analyzeFunction(FunctionDecl &func)
{
    currentFunc_ = &func;
    func.locals.clear();

    // By-value aggregates are not supported in calls: like many
    // small C dialects, MiniC passes structs via pointers only.
    if (func.returnType->isStruct() || func.returnType->isArray()) {
        diags_.error(func.loc, "function '" + func.name +
                                   "' cannot return an aggregate "
                                   "by value; return a pointer");
    }

    pushScope();
    for (auto &param : func.params) {
        if (param.type->isStruct() || param.type->isArray()) {
            diags_.error(param.loc,
                         "parameter '" + param.name +
                             "' cannot be an aggregate; pass a "
                             "pointer");
        }
    }
    for (auto &param : func.params) {
        param.localId = static_cast<int>(func.locals.size());
        func.locals.push_back({decay(param.type), param.name, true});
        if (scopes_.back().count(param.name)) {
            diags_.error(param.loc,
                         "duplicate parameter '" + param.name + "'");
        }
        scopes_.back()[param.name] = {false, param.localId,
                                      decay(param.type)};
    }
    if (func.body)
        for (auto &stmt : func.body->body)
            analyzeStmt(*stmt);
    popScope();
    currentFunc_ = nullptr;
}

void
Sema::analyzeStmt(Stmt &stmt)
{
    switch (stmt.kind()) {
      case StmtKind::Block: {
        auto &block = static_cast<BlockStmt &>(stmt);
        pushScope();
        for (auto &child : block.body)
            analyzeStmt(*child);
        popScope();
        return;
      }
      case StmtKind::VarDecl: {
        auto &decl = static_cast<VarDeclStmt &>(stmt);
        declareLocal(decl);
        if (decl.init) {
            const Type *init_type = analyzeExpr(*decl.init);
            if (!implicitlyConvertible(init_type, decay(decl.declType),
                                       decl.init.get())) {
                diags_.error(decl.loc(),
                             "cannot initialize '" +
                                 decl.declType->str() + "' from '" +
                                 init_type->str() + "'");
            }
        }
        return;
      }
      case StmtKind::If: {
        auto &if_stmt = static_cast<IfStmt &>(stmt);
        const Type *cond = analyzeExpr(*if_stmt.cond);
        if (!cond->isScalar())
            diags_.error(if_stmt.loc(), "if condition is not scalar");
        analyzeStmt(*if_stmt.thenStmt);
        if (if_stmt.elseStmt)
            analyzeStmt(*if_stmt.elseStmt);
        return;
      }
      case StmtKind::While: {
        auto &while_stmt = static_cast<WhileStmt &>(stmt);
        const Type *cond = analyzeExpr(*while_stmt.cond);
        if (!cond->isScalar())
            diags_.error(while_stmt.loc(),
                         "while condition is not scalar");
        loopDepth_++;
        analyzeStmt(*while_stmt.body);
        loopDepth_--;
        return;
      }
      case StmtKind::For: {
        auto &for_stmt = static_cast<ForStmt &>(stmt);
        pushScope();
        if (for_stmt.init)
            analyzeStmt(*for_stmt.init);
        if (for_stmt.cond) {
            const Type *cond = analyzeExpr(*for_stmt.cond);
            if (!cond->isScalar())
                diags_.error(for_stmt.loc(),
                             "for condition is not scalar");
        }
        if (for_stmt.step)
            analyzeExpr(*for_stmt.step);
        loopDepth_++;
        analyzeStmt(*for_stmt.body);
        loopDepth_--;
        popScope();
        return;
      }
      case StmtKind::Return: {
        auto &ret = static_cast<ReturnStmt &>(stmt);
        const Type *expected = currentFunc_->returnType;
        if (ret.value) {
            const Type *got = analyzeExpr(*ret.value);
            if (expected->isVoid()) {
                diags_.error(ret.loc(),
                             "returning a value from a void function");
            } else if (!implicitlyConvertible(got, expected,
                                              ret.value.get())) {
                diags_.error(ret.loc(), "cannot return '" + got->str() +
                                          "' as '" + expected->str() +
                                          "'");
            }
        } else if (!expected->isVoid()) {
            diags_.warning(ret.loc(),
                           "return without value in non-void function");
        }
        return;
      }
      case StmtKind::Break:
        if (loopDepth_ == 0)
            diags_.error(stmt.loc(), "break outside of a loop");
        return;
      case StmtKind::Continue:
        if (loopDepth_ == 0)
            diags_.error(stmt.loc(), "continue outside of a loop");
        return;
      case StmtKind::ExprStmt:
        analyzeExpr(*static_cast<ExprStmt &>(stmt).expr);
        return;
    }
    support::panic("unhandled statement kind");
}

const Type *
Sema::decay(const Type *type)
{
    if (type->isArray())
        return program_->types->pointerTo(type->element());
    return type;
}

const Type *
Sema::usualArithmetic(const Type *a, const Type *b)
{
    if (!a->isArithmetic() || !b->isArithmetic())
        return nullptr;
    TypeContext &types = *program_->types;
    if (a->isDouble() || b->isDouble())
        return types.doubleType();

    auto rank = [](const Type *t) {
        switch (t->kind()) {
          case TypeKind::ULong: return 4;
          case TypeKind::Long: return 3;
          case TypeKind::UInt: return 2;
          default: return 1; // char and int promote to int
        }
    };
    const int r = std::max(rank(a), rank(b));
    const bool any_unsigned =
        (rank(a) == r && !a->isSigned() && a->kind() != TypeKind::Char &&
         a->kind() != TypeKind::Int) ||
        (rank(b) == r && !b->isSigned() && b->kind() != TypeKind::Char &&
         b->kind() != TypeKind::Int);
    switch (r) {
      case 4: return types.ulongType();
      case 3: return types.longType();
      case 2: return types.uintType();
      default:
        return any_unsigned ? types.uintType() : types.intType();
    }
}

bool
Sema::implicitlyConvertible(const Type *src, const Type *dst,
                            const Expr *src_expr) const
{
    src = const_cast<Sema *>(this)->decay(src);
    if (src == dst)
        return true;
    if (src->isArithmetic() && dst->isArithmetic())
        return true;
    if (src->isPointer() && dst->isPointer())
        return true; // C would warn on mismatched pointees; we allow.
    // Literal 0 converts to any pointer (null).
    if (dst->isPointer() && src_expr &&
        src_expr->kind() == ExprKind::IntLit &&
        static_cast<const IntLitExpr *>(src_expr)->value == 0) {
        return true;
    }
    return false;
}

bool
Sema::isLValue(const Expr &expr) const
{
    switch (expr.kind()) {
      case ExprKind::VarRef:
      case ExprKind::Index:
      case ExprKind::Member:
        return true;
      case ExprKind::Unary:
        return static_cast<const UnaryExpr &>(expr).op == UnaryOp::Deref;
      default:
        return false;
    }
}

void
Sema::pushScope()
{
    scopes_.emplace_back();
}

void
Sema::popScope()
{
    scopes_.pop_back();
}

void
Sema::declareLocal(VarDeclStmt &decl)
{
    if (scopes_.back().count(decl.name)) {
        diags_.error(decl.loc(), "redefinition of '" + decl.name +
                                   "' in the same scope");
        return;
    }
    if (decl.declType->isVoid()) {
        diags_.error(decl.loc(), "cannot declare a void variable");
        return;
    }
    decl.localId = static_cast<int>(currentFunc_->locals.size());
    currentFunc_->locals.push_back({decl.declType, decl.name, false});
    scopes_.back()[decl.name] = {false, decl.localId, decl.declType};
}

const Sema::Symbol *
Sema::lookup(const std::string &name) const
{
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
        auto found = it->find(name);
        if (found != it->end())
            return &found->second;
    }
    return nullptr;
}

const Type *
Sema::analyzeExpr(Expr &expr)
{
    TypeContext &types = *program_->types;
    switch (expr.kind()) {
      case ExprKind::IntLit: {
        auto &lit = static_cast<IntLitExpr &>(expr);
        if (lit.isLong && lit.isUnsigned)
            lit.type = types.ulongType();
        else if (lit.isLong)
            lit.type = types.longType();
        else if (lit.isUnsigned)
            lit.type = types.uintType();
        else if (lit.value > 0x7fffffffLL || lit.value < -0x80000000LL)
            lit.type = types.longType();
        else
            lit.type = types.intType();
        return lit.type;
      }
      case ExprKind::FloatLit:
        expr.type = types.doubleType();
        return expr.type;
      case ExprKind::StrLit:
        expr.type = types.pointerTo(types.charType());
        return expr.type;
      case ExprKind::VarRef: {
        auto &ref = static_cast<VarRefExpr &>(expr);
        const Symbol *sym = lookup(ref.name);
        if (!sym) {
            diags_.error(ref.loc(),
                         "use of undeclared identifier '" + ref.name +
                             "'");
            ref.type = types.intType();
            return ref.type;
        }
        ref.isGlobal = sym->isGlobal;
        ref.id = sym->id;
        ref.type = sym->type;
        return ref.type;
      }
      case ExprKind::Unary: {
        auto &un = static_cast<UnaryExpr &>(expr);
        const Type *operand = analyzeExpr(*un.operand);
        switch (un.op) {
          case UnaryOp::Neg:
            if (!operand->isArithmetic()) {
                diags_.error(un.loc(), "cannot negate '" +
                                           operand->str() + "'");
            }
            un.type = operand->isDouble()
                          ? operand
                          : usualArithmetic(operand, types.intType());
            break;
          case UnaryOp::BitNot:
            if (!operand->isInteger()) {
                diags_.error(un.loc(), "operand of ~ must be integer");
            }
            un.type = usualArithmetic(operand, types.intType());
            if (!un.type)
                un.type = types.intType();
            break;
          case UnaryOp::LogNot:
            if (!operand->isScalar())
                diags_.error(un.loc(), "operand of ! must be scalar");
            un.type = types.intType();
            break;
          case UnaryOp::Deref: {
            const Type *decayed = decay(operand);
            if (!decayed->isPointer() || decayed->pointee()->isVoid()) {
                diags_.error(un.loc(),
                             "cannot dereference '" + operand->str() +
                                 "'");
                un.type = types.intType();
            } else {
                un.type = decayed->pointee();
            }
            break;
          }
          case UnaryOp::AddrOf:
            if (!isLValue(*un.operand)) {
                diags_.error(un.loc(),
                             "cannot take the address of an rvalue");
            }
            un.type = types.pointerTo(operand);
            break;
        }
        return un.type;
      }
      case ExprKind::Binary:
        return analyzeBinary(static_cast<BinaryExpr &>(expr));
      case ExprKind::Assign:
        return analyzeAssign(static_cast<AssignExpr &>(expr));
      case ExprKind::Cond: {
        auto &cond = static_cast<CondExpr &>(expr);
        const Type *c = analyzeExpr(*cond.cond);
        if (!c->isScalar())
            diags_.error(cond.loc(),
                         "ternary condition is not scalar");
        const Type *a = decay(analyzeExpr(*cond.thenExpr));
        const Type *b = decay(analyzeExpr(*cond.elseExpr));
        if (const Type *common = usualArithmetic(a, b)) {
            cond.type = common;
        } else if (a->isPointer() && b->isPointer()) {
            cond.type = a;
        } else {
            diags_.error(cond.loc(), "incompatible ternary arms '" +
                                         a->str() + "' and '" +
                                         b->str() + "'");
            cond.type = a;
        }
        return cond.type;
      }
      case ExprKind::Call:
        return analyzeCall(static_cast<CallExpr &>(expr));
      case ExprKind::Index: {
        auto &index = static_cast<IndexExpr &>(expr);
        const Type *base = analyzeExpr(*index.base);
        const Type *idx = analyzeExpr(*index.index);
        if (!idx->isInteger())
            diags_.error(index.loc(), "array index must be integer");
        const Type *decayed = decay(base);
        if (!decayed->isPointer() || decayed->pointee()->isVoid()) {
            diags_.error(index.loc(), "cannot subscript '" +
                                          base->str() + "'");
            index.type = types.intType();
        } else {
            index.type = decayed->pointee();
        }
        return index.type;
      }
      case ExprKind::Member: {
        auto &member = static_cast<MemberExpr &>(expr);
        const Type *base = analyzeExpr(*member.base);
        const Type *struct_type = nullptr;
        if (member.isArrow) {
            const Type *decayed = decay(base);
            if (decayed->isPointer() && decayed->pointee()->isStruct())
                struct_type = decayed->pointee();
        } else if (base->isStruct()) {
            struct_type = base;
        }
        if (!struct_type) {
            diags_.error(member.loc(),
                         "member access on non-struct '" +
                             base->str() + "'");
            member.type = types.intType();
            return member.type;
        }
        const StructField *field =
            struct_type->structInfo()->field(member.field);
        if (!field) {
            diags_.error(member.loc(),
                         "no field '" + member.field + "' in " +
                             struct_type->str());
            member.type = types.intType();
            return member.type;
        }
        member.fieldOffset = field->offset;
        member.type = field->type;
        return member.type;
      }
      case ExprKind::Cast: {
        auto &cast = static_cast<CastExpr &>(expr);
        const Type *src = decay(analyzeExpr(*cast.operand));
        const Type *dst = cast.target;
        const bool ok =
            (src->isScalar() && dst->isScalar()) || dst->isVoid();
        if (!ok) {
            diags_.error(cast.loc(), "invalid cast from '" +
                                         src->str() + "' to '" +
                                         dst->str() + "'");
        }
        cast.type = dst;
        return cast.type;
      }
      case ExprKind::SizeOf:
        expr.type = types.longType();
        return expr.type;
    }
    support::panic("unhandled expression kind");
}

const Type *
Sema::analyzeBinary(BinaryExpr &bin)
{
    TypeContext &types = *program_->types;
    const Type *lhs = decay(analyzeExpr(*bin.lhs));
    const Type *rhs = decay(analyzeExpr(*bin.rhs));

    switch (bin.op) {
      case BinaryOp::LogAnd:
      case BinaryOp::LogOr:
        if (!lhs->isScalar() || !rhs->isScalar())
            diags_.error(bin.loc(), "logical operands must be scalar");
        bin.type = types.intType();
        return bin.type;
      case BinaryOp::Lt:
      case BinaryOp::Le:
      case BinaryOp::Gt:
      case BinaryOp::Ge:
      case BinaryOp::Eq:
      case BinaryOp::Ne:
        if (lhs->isPointer() || rhs->isPointer()) {
            const bool both_ptr = lhs->isPointer() && rhs->isPointer();
            const bool null_cmp =
                (lhs->isPointer() && bin.rhs->kind() == ExprKind::IntLit &&
                 static_cast<IntLitExpr &>(*bin.rhs).value == 0) ||
                (rhs->isPointer() && bin.lhs->kind() == ExprKind::IntLit &&
                 static_cast<IntLitExpr &>(*bin.lhs).value == 0);
            if (!both_ptr && !null_cmp) {
                diags_.error(bin.loc(),
                             "comparison between pointer and integer");
            }
        } else if (!usualArithmetic(lhs, rhs)) {
            diags_.error(bin.loc(), "cannot compare '" + lhs->str() +
                                        "' and '" + rhs->str() + "'");
        }
        bin.type = types.intType();
        return bin.type;
      case BinaryOp::Add:
        if (lhs->isPointer() && rhs->isInteger()) {
            bin.type = lhs;
            return bin.type;
        }
        if (lhs->isInteger() && rhs->isPointer()) {
            bin.type = rhs;
            return bin.type;
        }
        break;
      case BinaryOp::Sub:
        if (lhs->isPointer() && rhs->isInteger()) {
            bin.type = lhs;
            return bin.type;
        }
        if (lhs->isPointer() && rhs->isPointer()) {
            // Pointer difference; UB across distinct objects
            // (CWE-469 territory), checked only at run time.
            bin.type = types.longType();
            return bin.type;
        }
        break;
      case BinaryOp::Shl:
      case BinaryOp::Shr:
        if (!lhs->isInteger() || !rhs->isInteger()) {
            diags_.error(bin.loc(), "shift operands must be integers");
            bin.type = types.intType();
            return bin.type;
        }
        // Shift result has the promoted type of the left operand.
        bin.type = usualArithmetic(lhs, types.intType());
        return bin.type;
      default:
        break;
    }

    if (const Type *common = usualArithmetic(lhs, rhs)) {
        if ((bin.op == BinaryOp::Rem || bin.op == BinaryOp::BitAnd ||
             bin.op == BinaryOp::BitOr || bin.op == BinaryOp::BitXor) &&
            common->isDouble()) {
            diags_.error(bin.loc(),
                         "integer operator applied to doubles");
        }
        bin.type = common;
        return bin.type;
    }

    diags_.error(bin.loc(), std::string("invalid operands to '") +
                                binaryOpSpelling(bin.op) + "': '" +
                                lhs->str() + "' and '" + rhs->str() +
                                "'");
    bin.type = types.intType();
    return bin.type;
}

const Type *
Sema::analyzeAssign(AssignExpr &assign)
{
    const Type *target = analyzeExpr(*assign.target);
    const Type *value = analyzeExpr(*assign.value);

    if (!isLValue(*assign.target)) {
        diags_.error(assign.loc(), "assignment target is not an lvalue");
    } else if (target->isArray()) {
        diags_.error(assign.loc(), "cannot assign to an array");
    } else if (target->isStruct()) {
        diags_.error(assign.loc(),
                     "struct assignment is not supported; copy "
                     "fields or memcpy");
    }

    if (assign.compoundOp) {
        const bool ptr_arith =
            target->isPointer() && value->isInteger() &&
            (*assign.compoundOp == BinaryOp::Add ||
             *assign.compoundOp == BinaryOp::Sub);
        if (!ptr_arith && !usualArithmetic(target, value)) {
            diags_.error(assign.loc(),
                         "invalid compound assignment operands");
        }
    } else if (!implicitlyConvertible(value, target,
                                      assign.value.get())) {
        diags_.error(assign.loc(), "cannot assign '" + value->str() +
                                       "' to '" + target->str() + "'");
    }
    assign.type = target;
    return assign.type;
}

const Type *
Sema::analyzeCall(CallExpr &call)
{
    TypeContext &types = *program_->types;

    for (auto &arg : call.args)
        analyzeExpr(*arg);

    const Builtin builtin = builtinFromName(call.callee);
    if (builtin != Builtin::None) {
        call.builtin = builtin;
        const int arity = builtinArity(builtin);
        if (static_cast<int>(call.args.size()) != arity) {
            diags_.error(call.loc(),
                         "builtin '" + call.callee + "' expects " +
                             std::to_string(arity) + " argument(s)");
        }
        switch (builtin) {
          case Builtin::Malloc:
            call.type = types.pointerTo(types.charType());
            break;
          case Builtin::InputSize:
          case Builtin::InputByte:
          case Builtin::ReadByte:
          case Builtin::Strcmp:
          case Builtin::CurLine:
          case Builtin::BadRand:
            call.type = types.intType();
            break;
          case Builtin::Strlen:
          case Builtin::TimeStamp:
            call.type = types.longType();
            break;
          case Builtin::PowF:
          case Builtin::SqrtF:
          case Builtin::FloorF:
            call.type = types.doubleType();
            break;
          default:
            call.type = types.voidType();
            break;
        }
        return call.type;
    }

    FunctionDecl *callee = program_->findFunction(call.callee);
    if (!callee) {
        diags_.error(call.loc(),
                     "call to undeclared function '" + call.callee +
                         "'");
        call.type = types.intType();
        return call.type;
    }
    call.funcIndex = callee->index;

    // Like pre-prototype C, an argument-count mismatch is legal but
    // dangerous: missing parameters are left uninitialized in the
    // callee frame (CWE-685 relies on this).
    if (call.args.size() != callee->params.size()) {
        diags_.warning(call.loc(),
                       "call to '" + call.callee + "' with " +
                           std::to_string(call.args.size()) +
                           " argument(s), expected " +
                           std::to_string(callee->params.size()));
    }
    const std::size_t checked =
        std::min(call.args.size(), callee->params.size());
    for (std::size_t i = 0; i < checked; i++) {
        const Type *param = decay(callee->params[i].type);
        const Type *arg = call.args[i]->type;
        if (!implicitlyConvertible(arg, param, call.args[i].get())) {
            diags_.error(call.args[i]->loc(),
                         "argument " + std::to_string(i + 1) +
                             " of '" + call.callee + "': cannot pass '" +
                             arg->str() + "' as '" + param->str() + "'");
        }
    }
    call.type = callee->returnType;
    return call.type;
}

} // namespace compdiff::minic
