#include "minic/ast.hh"

namespace compdiff::minic
{

const char *
binaryOpSpelling(BinaryOp op)
{
    switch (op) {
      case BinaryOp::Add: return "+";
      case BinaryOp::Sub: return "-";
      case BinaryOp::Mul: return "*";
      case BinaryOp::Div: return "/";
      case BinaryOp::Rem: return "%";
      case BinaryOp::Shl: return "<<";
      case BinaryOp::Shr: return ">>";
      case BinaryOp::BitAnd: return "&";
      case BinaryOp::BitOr: return "|";
      case BinaryOp::BitXor: return "^";
      case BinaryOp::Lt: return "<";
      case BinaryOp::Le: return "<=";
      case BinaryOp::Gt: return ">";
      case BinaryOp::Ge: return ">=";
      case BinaryOp::Eq: return "==";
      case BinaryOp::Ne: return "!=";
      case BinaryOp::LogAnd: return "&&";
      case BinaryOp::LogOr: return "||";
    }
    return "?";
}

bool
isComparison(BinaryOp op)
{
    switch (op) {
      case BinaryOp::Lt:
      case BinaryOp::Le:
      case BinaryOp::Gt:
      case BinaryOp::Ge:
      case BinaryOp::Eq:
      case BinaryOp::Ne:
        return true;
      default:
        return false;
    }
}

int
builtinArity(Builtin builtin)
{
    switch (builtin) {
      case Builtin::None: return -1;
      case Builtin::PrintInt:
      case Builtin::PrintUInt:
      case Builtin::PrintLong:
      case Builtin::PrintChar:
      case Builtin::PrintStr:
      case Builtin::PrintF:
      case Builtin::PrintHex:
      case Builtin::PrintPtr:
      case Builtin::Free:
      case Builtin::Strlen:
      case Builtin::Exit:
      case Builtin::SqrtF:
      case Builtin::FloorF:
      case Builtin::Malloc:
      case Builtin::InputByte:
      case Builtin::Probe:
        return 1;
      case Builtin::Newline:
      case Builtin::InputSize:
      case Builtin::ReadByte:
      case Builtin::Abort:
      case Builtin::CurLine:
      case Builtin::TimeStamp:
      case Builtin::BadRand:
        return 0;
      case Builtin::Strcpy:
      case Builtin::Strcmp:
      case Builtin::PowF:
        return 2;
      case Builtin::Memset:
      case Builtin::Memcpy:
        return 3;
    }
    return -1;
}

Builtin
builtinFromName(const std::string &name)
{
    if (name == "print_int") return Builtin::PrintInt;
    if (name == "print_uint") return Builtin::PrintUInt;
    if (name == "print_long") return Builtin::PrintLong;
    if (name == "print_char") return Builtin::PrintChar;
    if (name == "print_str") return Builtin::PrintStr;
    if (name == "print_f") return Builtin::PrintF;
    if (name == "print_hex") return Builtin::PrintHex;
    if (name == "print_ptr") return Builtin::PrintPtr;
    if (name == "newline") return Builtin::Newline;
    if (name == "input_size") return Builtin::InputSize;
    if (name == "input_byte") return Builtin::InputByte;
    if (name == "read_byte") return Builtin::ReadByte;
    if (name == "malloc") return Builtin::Malloc;
    if (name == "free") return Builtin::Free;
    if (name == "memset") return Builtin::Memset;
    if (name == "memcpy") return Builtin::Memcpy;
    if (name == "strlen") return Builtin::Strlen;
    if (name == "strcpy") return Builtin::Strcpy;
    if (name == "strcmp") return Builtin::Strcmp;
    if (name == "exit") return Builtin::Exit;
    if (name == "abort") return Builtin::Abort;
    if (name == "cur_line") return Builtin::CurLine;
    if (name == "pow_f") return Builtin::PowF;
    if (name == "sqrt_f") return Builtin::SqrtF;
    if (name == "floor_f") return Builtin::FloorF;
    if (name == "time_stamp") return Builtin::TimeStamp;
    if (name == "bad_rand") return Builtin::BadRand;
    if (name == "probe") return Builtin::Probe;
    return Builtin::None;
}

namespace
{

ExprPtr
cloneOrNull(const ExprPtr &expr)
{
    return expr ? expr->clone() : nullptr;
}

StmtPtr
cloneOrNull(const StmtPtr &stmt)
{
    return stmt ? stmt->clone() : nullptr;
}

} // namespace

ExprPtr
IntLitExpr::clone() const
{
    auto copy = std::make_unique<IntLitExpr>(loc(), value);
    copy->isLong = isLong;
    copy->isUnsigned = isUnsigned;
    copyAnnotations(*copy);
    return copy;
}

ExprPtr
FloatLitExpr::clone() const
{
    auto copy = std::make_unique<FloatLitExpr>(loc(), value);
    copyAnnotations(*copy);
    return copy;
}

ExprPtr
StrLitExpr::clone() const
{
    auto copy = std::make_unique<StrLitExpr>(loc(), bytes);
    copyAnnotations(*copy);
    return copy;
}

ExprPtr
VarRefExpr::clone() const
{
    auto copy = std::make_unique<VarRefExpr>(loc(), name);
    copy->isGlobal = isGlobal;
    copy->id = id;
    copyAnnotations(*copy);
    return copy;
}

ExprPtr
UnaryExpr::clone() const
{
    auto copy =
        std::make_unique<UnaryExpr>(loc(), op, operand->clone());
    copyAnnotations(*copy);
    return copy;
}

ExprPtr
BinaryExpr::clone() const
{
    auto copy = std::make_unique<BinaryExpr>(loc(), op, lhs->clone(),
                                             rhs->clone());
    copy->widenTo64 = widenTo64;
    copyAnnotations(*copy);
    return copy;
}

ExprPtr
AssignExpr::clone() const
{
    auto copy = std::make_unique<AssignExpr>(
        loc(), target->clone(), value->clone(), compoundOp);
    copyAnnotations(*copy);
    return copy;
}

ExprPtr
CondExpr::clone() const
{
    auto copy = std::make_unique<CondExpr>(
        loc(), cond->clone(), thenExpr->clone(), elseExpr->clone());
    copyAnnotations(*copy);
    return copy;
}

ExprPtr
CallExpr::clone() const
{
    std::vector<ExprPtr> cloned_args;
    cloned_args.reserve(args.size());
    for (const auto &a : args)
        cloned_args.push_back(a->clone());
    auto copy = std::make_unique<CallExpr>(loc(), callee,
                                           std::move(cloned_args));
    copy->builtin = builtin;
    copy->funcIndex = funcIndex;
    copyAnnotations(*copy);
    return copy;
}

ExprPtr
IndexExpr::clone() const
{
    auto copy = std::make_unique<IndexExpr>(loc(), base->clone(),
                                            index->clone());
    copyAnnotations(*copy);
    return copy;
}

ExprPtr
MemberExpr::clone() const
{
    auto copy = std::make_unique<MemberExpr>(loc(), base->clone(),
                                             field, isArrow);
    copy->fieldOffset = fieldOffset;
    copyAnnotations(*copy);
    return copy;
}

ExprPtr
CastExpr::clone() const
{
    auto copy =
        std::make_unique<CastExpr>(loc(), target, operand->clone());
    copyAnnotations(*copy);
    return copy;
}

ExprPtr
SizeOfExpr::clone() const
{
    auto copy = std::make_unique<SizeOfExpr>(loc(), queried);
    copyAnnotations(*copy);
    return copy;
}

StmtPtr
BlockStmt::clone() const
{
    auto copy = std::make_unique<BlockStmt>(loc());
    copy->body.reserve(body.size());
    for (const auto &s : body)
        copy->body.push_back(s->clone());
    return copy;
}

StmtPtr
VarDeclStmt::clone() const
{
    auto copy = std::make_unique<VarDeclStmt>(loc(), declType, name,
                                              cloneOrNull(init));
    copy->localId = localId;
    return copy;
}

StmtPtr
IfStmt::clone() const
{
    auto copy = std::make_unique<IfStmt>(loc(), cond->clone(),
                                         thenStmt->clone(),
                                         cloneOrNull(elseStmt));
    return copy;
}

StmtPtr
WhileStmt::clone() const
{
    return std::make_unique<WhileStmt>(loc(), cond->clone(),
                                       body->clone());
}

StmtPtr
ForStmt::clone() const
{
    return std::make_unique<ForStmt>(loc(), cloneOrNull(init),
                                     cloneOrNull(cond),
                                     cloneOrNull(step), body->clone());
}

StmtPtr
ReturnStmt::clone() const
{
    return std::make_unique<ReturnStmt>(loc(), cloneOrNull(value));
}

StmtPtr
BreakStmt::clone() const
{
    return std::make_unique<BreakStmt>(loc());
}

StmtPtr
ContinueStmt::clone() const
{
    return std::make_unique<ContinueStmt>(loc());
}

StmtPtr
ExprStmt::clone() const
{
    return std::make_unique<ExprStmt>(loc(), expr->clone());
}

std::unique_ptr<FunctionDecl>
FunctionDecl::clone() const
{
    auto copy = std::make_unique<FunctionDecl>();
    copy->returnType = returnType;
    copy->name = name;
    copy->params = params;
    copy->loc = loc;
    copy->index = index;
    copy->locals = locals;
    if (body) {
        auto cloned = body->clone();
        copy->body.reset(static_cast<BlockStmt *>(cloned.release()));
    }
    return copy;
}

std::unique_ptr<GlobalDecl>
GlobalDecl::clone() const
{
    auto copy = std::make_unique<GlobalDecl>();
    copy->type = type;
    copy->name = name;
    copy->init = cloneOrNull(init);
    copy->loc = loc;
    copy->globalId = globalId;
    return copy;
}

const FunctionDecl *
Program::findFunction(const std::string &name) const
{
    for (const auto &f : functions)
        if (f->name == name)
            return f.get();
    return nullptr;
}

FunctionDecl *
Program::findFunction(const std::string &name)
{
    for (const auto &f : functions)
        if (f->name == name)
            return f.get();
    return nullptr;
}

} // namespace compdiff::minic
