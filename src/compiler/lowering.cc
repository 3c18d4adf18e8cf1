#include "compiler/lowering.hh"

#include <algorithm>

#include "minic/walk.hh"
#include "support/hash.hh"
#include "support/logging.hh"

namespace compdiff::compiler
{

using namespace minic;
using bytecode::Function;
using bytecode::Insn;
using bytecode::Module;
using bytecode::Op;
using support::panic;

namespace
{

std::uint64_t
alignUp(std::uint64_t value, std::uint64_t align)
{
    return (value + align - 1) / align * align;
}

/** Value width in bytes used when passing/storing a scalar type. */
std::uint8_t
scalarWidth(const Type *type)
{
    switch (type->kind()) {
      case TypeKind::Char: return 1;
      case TypeKind::Int:
      case TypeKind::UInt: return 4;
      default: return 8;
    }
}

bool
isSignedKind(const Type *type)
{
    switch (type->kind()) {
      case TypeKind::Char:
      case TypeKind::Int:
      case TypeKind::Long:
        return true;
      default:
        return false; // uint, ulong, pointer, double(n/a)
    }
}

/**
 * Per-function lowering engine.
 */
class FuncLowering
{
  public:
    FuncLowering(const Program &program, const CompilerConfig &config,
                 const Traits &traits, const FunctionDecl &func,
                 std::vector<std::uint8_t> &rodata)
        : program_(program), config_(config), traits_(traits),
          func_(func), rodata_(rodata)
    {}

    Function lower();

  private:
    // --- emission ---------------------------------------------------
    std::size_t
    emit(Op op, std::int32_t a = 0, std::int32_t b = 0,
         std::int64_t imm = 0)
    {
        Insn insn;
        insn.op = op;
        insn.a = a;
        insn.b = b;
        insn.imm = imm;
        insn.line = curLine_;
        code_.push_back(insn);
        return code_.size() - 1;
    }

    void
    emitBlock()
    {
        const std::uint64_t mix = support::murmurMix64(
            (std::uint64_t(func_.index) << 20) | blockCounter_);
        emit(Op::Block, static_cast<std::int32_t>(mix & 0xffff));
        blockCounter_++;
    }

    std::size_t
    emitJump(Op op)
    {
        return emit(op, -1);
    }

    void
    patchHere(std::size_t at)
    {
        code_[at].a = static_cast<std::int32_t>(code_.size());
    }

    bool ubsan() const { return config_.sanitizer == Sanitizer::UBSan; }
    bool asan() const { return config_.sanitizer == Sanitizer::ASan; }

    // --- layout -------------------------------------------------------
    void layoutFrame(Function &out);

    // --- codegen -----------------------------------------------------
    void genStmt(const Stmt &stmt);
    void genBlockBody(const BlockStmt &block);
    void genValue(const Expr &expr);
    void genAddr(const Expr &expr);
    void genAssign(const AssignExpr &assign, bool need_value);
    void genCall(const CallExpr &call);
    void genBinary(const BinaryExpr &bin);
    void genCond(const Expr &expr);
    void genShift(const BinaryExpr &bin);
    void genPointerArith(const BinaryExpr &bin);
    void genLogical(const BinaryExpr &bin);
    void genComparison(const BinaryExpr &bin);

    /** Convert the canonical stack top from one type to another. */
    void convert(const Type *from, const Type *to);
    /** Normalize the stack top to a narrow integer type. */
    void narrow(const Type *to);
    /** Emit a load of a scalar `type` from the address on the stack. */
    void load(const Type *type);
    /** Emit a store of a scalar `type` (stack: addr value). */
    void store(const Type *type);
    /** Emit arithmetic op for a common type, with UBSan + truncate. */
    void applyIntOp(BinaryOp op, const Type *type, bool widened);

    /** Common operand type for a comparison; nullptr = raw 64-bit. */
    const Type *comparisonType(const Type *a, const Type *b) const;
    const Type *arithCommon(const Type *a, const Type *b) const;

    const Program &program_;
    const CompilerConfig &config_;
    const Traits &traits_;
    const FunctionDecl &func_;
    std::vector<std::uint8_t> &rodata_;

    std::vector<Insn> code_;
    std::vector<std::int32_t> slotOffset_;
    std::uint32_t blockCounter_ = 0;
    std::uint32_t curLine_ = 0;
    std::vector<std::vector<std::size_t>> breakPatches_;
    std::vector<std::vector<std::size_t>> continuePatches_;

    std::uint32_t
    internRodata(const std::string &bytes)
    {
        const auto offset = static_cast<std::uint32_t>(rodata_.size());
        rodata_.insert(rodata_.end(), bytes.begin(), bytes.end());
        rodata_.push_back(0);
        return offset;
    }
};

void
FuncLowering::layoutFrame(Function &out)
{
    const auto &locals = func_.locals;
    std::vector<std::size_t> order(locals.size());
    for (std::size_t i = 0; i < order.size(); i++)
        order[i] = i;

    auto size_of = [&](std::size_t i) {
        return locals[i].type->size();
    };
    switch (traits_.localOrder) {
      case LayoutOrder::Declaration:
        break;
      case LayoutOrder::ReverseDeclaration:
        std::reverse(order.begin(), order.end());
        break;
      case LayoutOrder::SizeDescending:
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return size_of(a) > size_of(b);
                         });
        break;
      case LayoutOrder::SizeAscending:
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return size_of(a) < size_of(b);
                         });
        break;
    }

    const std::uint32_t gap = asan() ? 16 : traits_.localPad;
    slotOffset_.assign(locals.size(), 0);
    out.slots.resize(locals.size());

    std::uint64_t offset = 0;
    bool first = true;
    for (std::size_t id : order) {
        const Type *type = locals[id].type;
        if (!first || asan())
            offset += gap;
        first = false;
        offset = alignUp(offset, std::max<std::uint64_t>(
                                     type->align(), 1));
        slotOffset_[id] = static_cast<std::int32_t>(offset);
        bytecode::FrameSlot slot;
        slot.offset = static_cast<std::int32_t>(offset);
        slot.size = static_cast<std::uint32_t>(type->size());
        slot.localId = static_cast<int>(id);
        slot.isParam = locals[id].isParam;
        slot.name = locals[id].name;
        out.slots[id] = slot;
        offset += type->size();
    }
    offset += gap;
    out.frameSize = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(alignUp(offset, 16), 16));

    out.numParams = static_cast<std::uint32_t>(func_.params.size());
    for (const auto &param : func_.params) {
        const auto id = static_cast<std::size_t>(param.localId);
        out.paramOffsets.push_back(slotOffset_[id]);
        out.paramSizes.push_back(scalarWidth(locals[id].type));
    }
}

Function
FuncLowering::lower()
{
    Function out;
    out.name = func_.name;
    out.index = func_.index;
    out.returnsValue = !func_.returnType->isVoid();
    layoutFrame(out);

    emitBlock();
    if (func_.body)
        genBlockBody(*func_.body);

    // Implicit return: falling off the end of a non-void function
    // leaves an indeterminate value behind (C UB); PushUndef makes the
    // configuration's choice concrete.
    if (out.returnsValue) {
        emit(Op::PushUndef);
        emit(Op::Ret, 1);
    } else {
        emit(Op::Ret, 0);
    }

    out.code = std::move(code_);
    return out;
}

void
FuncLowering::genBlockBody(const BlockStmt &block)
{
    for (const auto &stmt : block.body)
        genStmt(*stmt);
}

void
FuncLowering::genStmt(const Stmt &stmt)
{
    curLine_ = stmt.loc().line;
    switch (stmt.kind()) {
      case StmtKind::Block:
        genBlockBody(static_cast<const BlockStmt &>(stmt));
        return;
      case StmtKind::VarDecl: {
        const auto &decl = static_cast<const VarDeclStmt &>(stmt);
        if (!decl.init)
            return; // storage stays uninitialized
        emit(Op::FrameAddr,
             slotOffset_[static_cast<std::size_t>(decl.localId)]);
        genValue(*decl.init);
        convert(decl.init->type, decl.declType);
        store(decl.declType);
        return;
      }
      case StmtKind::If: {
        const auto &if_stmt = static_cast<const IfStmt &>(stmt);
        genCond(*if_stmt.cond);
        const std::size_t to_else = emitJump(Op::JmpZ);
        emitBlock();
        genStmt(*if_stmt.thenStmt);
        if (if_stmt.elseStmt) {
            const std::size_t to_end = emitJump(Op::Jmp);
            patchHere(to_else);
            emitBlock();
            genStmt(*if_stmt.elseStmt);
            patchHere(to_end);
        } else {
            patchHere(to_else);
        }
        emitBlock();
        return;
      }
      case StmtKind::While: {
        const auto &while_stmt = static_cast<const WhileStmt &>(stmt);
        breakPatches_.emplace_back();
        continuePatches_.emplace_back();
        const auto head = static_cast<std::int32_t>(code_.size());
        emitBlock();
        genCond(*while_stmt.cond);
        const std::size_t to_end = emitJump(Op::JmpZ);
        emitBlock();
        genStmt(*while_stmt.body);
        for (std::size_t at : continuePatches_.back())
            code_[at].a = head;
        emit(Op::Jmp, head);
        patchHere(to_end);
        for (std::size_t at : breakPatches_.back())
            patchHere(at);
        emitBlock();
        breakPatches_.pop_back();
        continuePatches_.pop_back();
        return;
      }
      case StmtKind::For: {
        const auto &for_stmt = static_cast<const ForStmt &>(stmt);
        if (for_stmt.init)
            genStmt(*for_stmt.init);
        breakPatches_.emplace_back();
        continuePatches_.emplace_back();
        const auto head = static_cast<std::int32_t>(code_.size());
        emitBlock();
        std::size_t to_end = SIZE_MAX;
        if (for_stmt.cond) {
            genCond(*for_stmt.cond);
            to_end = emitJump(Op::JmpZ);
        }
        emitBlock();
        genStmt(*for_stmt.body);
        const auto cont = static_cast<std::int32_t>(code_.size());
        for (std::size_t at : continuePatches_.back())
            code_[at].a = cont;
        if (for_stmt.step) {
            curLine_ = stmt.loc().line;
            genValue(*for_stmt.step);
            if (for_stmt.step->type && !for_stmt.step->type->isVoid())
                emit(Op::Drop);
        }
        emit(Op::Jmp, head);
        if (to_end != SIZE_MAX)
            patchHere(to_end);
        for (std::size_t at : breakPatches_.back())
            patchHere(at);
        emitBlock();
        breakPatches_.pop_back();
        continuePatches_.pop_back();
        return;
      }
      case StmtKind::Return: {
        const auto &ret = static_cast<const ReturnStmt &>(stmt);
        if (func_.returnType->isVoid()) {
            emit(Op::Ret, 0);
        } else if (ret.value) {
            genValue(*ret.value);
            convert(ret.value->type, func_.returnType);
            emit(Op::Ret, 1);
        } else {
            emit(Op::PushUndef);
            emit(Op::Ret, 1);
        }
        return;
      }
      case StmtKind::Break:
        breakPatches_.back().push_back(emitJump(Op::Jmp));
        return;
      case StmtKind::Continue:
        continuePatches_.back().push_back(emitJump(Op::Jmp));
        return;
      case StmtKind::ExprStmt: {
        const auto &es = static_cast<const ExprStmt &>(stmt);
        if (es.expr->kind() == ExprKind::Assign) {
            genAssign(static_cast<const AssignExpr &>(*es.expr),
                      /*need_value=*/false);
            return;
        }
        genValue(*es.expr);
        if (es.expr->type && !es.expr->type->isVoid())
            emit(Op::Drop);
        return;
      }
    }
    panic("unhandled statement kind in lowering");
}

const Type *
FuncLowering::arithCommon(const Type *a, const Type *b) const
{
    const TypeContext &types = *program_.types;
    if (a->isDouble() || b->isDouble())
        return types.doubleType();
    auto rank = [](const Type *t) {
        switch (t->kind()) {
          case TypeKind::ULong: return 4;
          case TypeKind::Long: return 3;
          case TypeKind::UInt: return 2;
          default: return 1;
        }
    };
    switch (std::max(rank(a), rank(b))) {
      case 4: return types.ulongType();
      case 3: return types.longType();
      case 2: return types.uintType();
      default: return types.intType();
    }
}

const Type *
FuncLowering::comparisonType(const Type *a, const Type *b) const
{
    if (a->isPointer() || a->isArray() || b->isPointer() ||
        b->isArray()) {
        return nullptr; // raw unsigned 64-bit comparison
    }
    return arithCommon(a, b);
}

void
FuncLowering::narrow(const Type *to)
{
    switch (to->kind()) {
      case TypeKind::Char: emit(Op::Trunc8S); return;
      case TypeKind::Int: emit(Op::Trunc32S); return;
      case TypeKind::UInt: emit(Op::Trunc32U); return;
      default: return;
    }
}

void
FuncLowering::convert(const Type *from, const Type *to)
{
    if (!from || !to || from == to)
        return;
    if (to->isDouble()) {
        if (from->isDouble())
            return;
        emit(isSignedKind(from) ? Op::I2FS : Op::I2FU);
        return;
    }
    if (from->isDouble()) {
        emit(Op::F2I);
        narrow(to);
        return;
    }
    if (from->isArray() || to->isArray() || from->isStruct() ||
        to->isStruct() || from->isVoid() || to->isVoid()) {
        return; // decayed addresses / ignored
    }
    narrow(to);
}

void
FuncLowering::load(const Type *type)
{
    switch (type->kind()) {
      case TypeKind::Char: emit(Op::Ld8S); return;
      case TypeKind::Int: emit(Op::Ld32S); return;
      case TypeKind::UInt: emit(Op::Ld32U); return;
      case TypeKind::Long:
      case TypeKind::ULong:
      case TypeKind::Pointer: emit(Op::Ld64); return;
      case TypeKind::Double: emit(Op::LdF); return;
      default:
        panic("load of non-scalar type " + type->str());
    }
}

void
FuncLowering::store(const Type *type)
{
    switch (type->kind()) {
      case TypeKind::Char: emit(Op::St8); return;
      case TypeKind::Int:
      case TypeKind::UInt: emit(Op::St32); return;
      case TypeKind::Long:
      case TypeKind::ULong:
      case TypeKind::Pointer: emit(Op::St64); return;
      case TypeKind::Double: emit(Op::StF); return;
      default:
        panic("store of non-scalar type " + type->str());
    }
}

void
FuncLowering::genAddr(const Expr &expr)
{
    switch (expr.kind()) {
      case ExprKind::VarRef: {
        const auto &ref = static_cast<const VarRefExpr &>(expr);
        if (ref.isGlobal)
            emit(Op::GlobalAddr, ref.id);
        else
            emit(Op::FrameAddr,
                 slotOffset_[static_cast<std::size_t>(ref.id)]);
        return;
      }
      case ExprKind::Unary: {
        const auto &un = static_cast<const UnaryExpr &>(expr);
        if (un.op != UnaryOp::Deref)
            break;
        genValue(*un.operand);
        if (ubsan())
            emit(Op::ChkNull);
        return;
      }
      case ExprKind::Index: {
        const auto &index = static_cast<const IndexExpr &>(expr);
        const Type *base_type = index.base->type;
        if (base_type->isArray()) {
            genAddr(*index.base);
        } else {
            genValue(*index.base);
            if (ubsan())
                emit(Op::ChkNull);
        }
        genValue(*index.index);
        const std::uint64_t elem =
            std::max<std::uint64_t>(expr.type->size(), 1);
        emit(Op::PushI, 0, 0, static_cast<std::int64_t>(elem));
        emit(Op::MulI);
        emit(Op::AddI);
        return;
      }
      case ExprKind::Member: {
        const auto &member = static_cast<const MemberExpr &>(expr);
        if (member.isArrow) {
            genValue(*member.base);
            if (ubsan())
                emit(Op::ChkNull);
        } else {
            genAddr(*member.base);
        }
        if (member.fieldOffset) {
            emit(Op::PushI, 0, 0,
                 static_cast<std::int64_t>(member.fieldOffset));
            emit(Op::AddI);
        }
        return;
      }
      default:
        break;
    }
    panic("genAddr on non-lvalue expression");
}

void
FuncLowering::genValue(const Expr &expr)
{
    switch (expr.kind()) {
      case ExprKind::IntLit: {
        const auto &lit = static_cast<const IntLitExpr &>(expr);
        std::int64_t value = lit.value;
        if (expr.type && expr.type->kind() == TypeKind::UInt)
            value = static_cast<std::uint32_t>(value);
        emit(Op::PushI, 0, 0, value);
        return;
      }
      case ExprKind::FloatLit:
        emit(Op::PushF, 0, 0,
             bytecode::doubleToBits(
                 static_cast<const FloatLitExpr &>(expr).value));
        return;
      case ExprKind::StrLit: {
        const auto &lit = static_cast<const StrLitExpr &>(expr);
        emit(Op::RodataAddr,
             static_cast<std::int32_t>(internRodata(lit.bytes)));
        return;
      }
      case ExprKind::VarRef:
      case ExprKind::Index:
      case ExprKind::Member: {
        // Array- or struct-typed lvalues decay to their address.
        if (expr.type->isArray() || expr.type->isStruct()) {
            genAddr(expr);
            return;
        }
        genAddr(expr);
        load(expr.type);
        return;
      }
      case ExprKind::Unary: {
        const auto &un = static_cast<const UnaryExpr &>(expr);
        switch (un.op) {
          case UnaryOp::Neg:
            genValue(*un.operand);
            convert(un.operand->type, expr.type);
            if (expr.type->isDouble()) {
                emit(Op::NegF);
            } else {
                emit(Op::NegI);
                if (ubsan() && expr.type->kind() == TypeKind::Int)
                    emit(Op::ChkOv32);
                narrow(expr.type);
            }
            return;
          case UnaryOp::BitNot:
            genValue(*un.operand);
            convert(un.operand->type, expr.type);
            emit(Op::NotI);
            narrow(expr.type);
            return;
          case UnaryOp::LogNot:
            genValue(*un.operand);
            if (un.operand->type->isDouble()) {
                emit(Op::PushF, 0, 0, bytecode::doubleToBits(0.0));
                emit(Op::CmpEqF);
            } else {
                emit(Op::CmpEqZ);
            }
            return;
          case UnaryOp::Deref:
            if (expr.type->isArray() || expr.type->isStruct()) {
                genAddr(expr);
                return;
            }
            genValue(*un.operand);
            if (ubsan())
                emit(Op::ChkNull);
            load(expr.type);
            return;
          case UnaryOp::AddrOf:
            genAddr(*un.operand);
            return;
        }
        return;
      }
      case ExprKind::Binary:
        genBinary(static_cast<const BinaryExpr &>(expr));
        return;
      case ExprKind::Assign:
        genAssign(static_cast<const AssignExpr &>(expr), true);
        return;
      case ExprKind::Cond: {
        const auto &cond = static_cast<const CondExpr &>(expr);
        genCond(*cond.cond);
        const std::size_t to_else = emitJump(Op::JmpZ);
        genValue(*cond.thenExpr);
        convert(cond.thenExpr->type, expr.type);
        const std::size_t to_end = emitJump(Op::Jmp);
        patchHere(to_else);
        genValue(*cond.elseExpr);
        convert(cond.elseExpr->type, expr.type);
        patchHere(to_end);
        return;
      }
      case ExprKind::Call:
        genCall(static_cast<const CallExpr &>(expr));
        return;
      case ExprKind::Cast: {
        const auto &cast = static_cast<const CastExpr &>(expr);
        genValue(*cast.operand);
        if (cast.target->isVoid()) {
            if (!cast.operand->type->isVoid())
                emit(Op::Drop);
            return;
        }
        convert(cast.operand->type, cast.target);
        return;
      }
      case ExprKind::SizeOf:
        emit(Op::PushI, 0, 0,
             static_cast<std::int64_t>(
                 static_cast<const SizeOfExpr &>(expr).queried
                     ->size()));
        return;
    }
    panic("unhandled expression kind in lowering");
}

void
FuncLowering::genCond(const Expr &expr)
{
    genValue(expr);
    if (expr.type && expr.type->isDouble()) {
        emit(Op::PushF, 0, 0, bytecode::doubleToBits(0.0));
        emit(Op::CmpNeF);
    }
}

void
FuncLowering::applyIntOp(BinaryOp op, const Type *type, bool widened)
{
    const bool is_signed = isSignedKind(type);
    const bool is_32 = type->is32OrNarrower() && !widened;

    switch (op) {
      case BinaryOp::Add: emit(Op::AddI); break;
      case BinaryOp::Sub: emit(Op::SubI); break;
      case BinaryOp::Mul: emit(Op::MulI); break;
      case BinaryOp::Div:
        if (ubsan())
            emit(Op::ChkDivS, is_32 ? 32 : 64, is_signed ? 1 : 0);
        emit(is_signed ? Op::DivS : Op::DivU);
        break;
      case BinaryOp::Rem:
        if (ubsan())
            emit(Op::ChkDivS, is_32 ? 32 : 64, is_signed ? 1 : 0);
        emit(is_signed ? Op::RemS : Op::RemU);
        break;
      case BinaryOp::BitAnd: emit(Op::AndI); break;
      case BinaryOp::BitOr: emit(Op::OrI); break;
      case BinaryOp::BitXor: emit(Op::XorI); break;
      default:
        panic("applyIntOp: unexpected operator");
    }

    const bool overflowable = op == BinaryOp::Add ||
                              op == BinaryOp::Sub ||
                              op == BinaryOp::Mul;
    // Seeded sanitizer defect (bugChkOv32Unsigned): the redundant-
    // check elision's signedness predicate is inverted for add/sub,
    // dropping the signed checks and planting one on unsigned ops.
    bool check = is_signed;
    if (traits_.bugChkOv32Unsigned && op != BinaryOp::Mul)
        check = !is_signed;
    if (ubsan() && overflowable && check && is_32)
        emit(Op::ChkOv32);
    if (!widened)
        narrow(type);
}

void
FuncLowering::genShift(const BinaryExpr &bin)
{
    genValue(*bin.lhs);
    convert(bin.lhs->type, bin.type);
    genValue(*bin.rhs);
    const bool is_32 = bin.type->is32OrNarrower();
    if (ubsan())
        emit(is_32 ? Op::ChkShift32 : Op::ChkShift64);
    const auto policy = static_cast<std::int32_t>(
        is_32 ? traits_.shift32 : traits_.shift64);
    emit(is_32 ? Op::ShiftNorm32 : Op::ShiftNorm64, policy);
    if (bin.op == BinaryOp::Shl)
        emit(Op::Shl);
    else
        emit(isSignedKind(bin.type) ? Op::ShrS : Op::ShrU);
    narrow(bin.type);
}

void
FuncLowering::genPointerArith(const BinaryExpr &bin)
{
    const Type *lt = bin.lhs->type;
    const Type *rt = bin.rhs->type;
    const bool l_ptr = lt->isPointer() || lt->isArray();
    const bool r_ptr = rt->isPointer() || rt->isArray();

    auto elem_size = [](const Type *ptr) -> std::int64_t {
        const Type *pointee =
            ptr->isArray() ? ptr->element() : ptr->pointee();
        return static_cast<std::int64_t>(
            std::max<std::uint64_t>(pointee->size(), 1));
    };

    if (l_ptr && r_ptr) {
        // Pointer difference. Defined only within one object; across
        // objects the result leaks the configuration's layout
        // (CWE-469).
        genValue(*bin.lhs);
        genValue(*bin.rhs);
        emit(Op::SubI);
        emit(Op::PushI, 0, 0, elem_size(lt));
        emit(Op::DivS);
        return;
    }

    genValue(*bin.lhs);
    genValue(*bin.rhs);
    if (!l_ptr) {
        // int + ptr: scale the integer that sits *below* the pointer.
        emit(Op::Swap);
    }
    emit(Op::PushI, 0, 0, elem_size(l_ptr ? lt : rt));
    emit(Op::MulI);
    if (bin.op == BinaryOp::Add)
        emit(Op::AddI);
    else
        emit(Op::SubI);
}

void
FuncLowering::genLogical(const BinaryExpr &bin)
{
    const bool is_and = bin.op == BinaryOp::LogAnd;
    genCond(*bin.lhs);
    const std::size_t shortcut =
        emitJump(is_and ? Op::JmpZ : Op::JmpNZ);
    genCond(*bin.rhs);
    emit(Op::BoolVal);
    const std::size_t to_end = emitJump(Op::Jmp);
    patchHere(shortcut);
    emit(Op::PushI, 0, 0, is_and ? 0 : 1);
    patchHere(to_end);
}

void
FuncLowering::genComparison(const BinaryExpr &bin)
{
    const Type *common = comparisonType(bin.lhs->type, bin.rhs->type);
    genValue(*bin.lhs);
    if (common)
        convert(bin.lhs->type, common);
    genValue(*bin.rhs);
    if (common)
        convert(bin.rhs->type, common);

    if (common && common->isDouble()) {
        switch (bin.op) {
          case BinaryOp::Lt: emit(Op::CmpLtF); return;
          case BinaryOp::Le: emit(Op::CmpLeF); return;
          case BinaryOp::Gt: emit(Op::CmpGtF); return;
          case BinaryOp::Ge: emit(Op::CmpGeF); return;
          case BinaryOp::Eq: emit(Op::CmpEqF); return;
          case BinaryOp::Ne: emit(Op::CmpNeF); return;
          default: break;
        }
    }
    const bool is_signed = common && isSignedKind(common);
    switch (bin.op) {
      case BinaryOp::Lt: emit(is_signed ? Op::CmpLtS : Op::CmpLtU);
        return;
      case BinaryOp::Le: emit(is_signed ? Op::CmpLeS : Op::CmpLeU);
        return;
      case BinaryOp::Gt: emit(is_signed ? Op::CmpGtS : Op::CmpGtU);
        return;
      case BinaryOp::Ge: emit(is_signed ? Op::CmpGeS : Op::CmpGeU);
        return;
      case BinaryOp::Eq: emit(Op::CmpEq); return;
      case BinaryOp::Ne: emit(Op::CmpNe); return;
      default:
        panic("genComparison: not a comparison");
    }
}

void
FuncLowering::genBinary(const BinaryExpr &bin)
{
    if (bin.op == BinaryOp::LogAnd || bin.op == BinaryOp::LogOr) {
        genLogical(bin);
        return;
    }
    if (isComparison(bin.op)) {
        genComparison(bin);
        return;
    }
    if (bin.op == BinaryOp::Shl || bin.op == BinaryOp::Shr) {
        genShift(bin);
        return;
    }

    const Type *lt = bin.lhs->type;
    const Type *rt = bin.rhs->type;
    if (lt->isPointer() || lt->isArray() || rt->isPointer() ||
        rt->isArray()) {
        genPointerArith(bin);
        return;
    }

    if (bin.type->isDouble()) {
        genValue(*bin.lhs);
        convert(lt, bin.type);
        genValue(*bin.rhs);
        convert(rt, bin.type);
        switch (bin.op) {
          case BinaryOp::Add: emit(Op::AddF); return;
          case BinaryOp::Sub: emit(Op::SubF); return;
          case BinaryOp::Mul: emit(Op::MulF); return;
          case BinaryOp::Div: emit(Op::DivF); return;
          default:
            panic("invalid double operator survived sema");
        }
    }

    // Integer arithmetic. A widened node computes directly in 64 bits
    // (operands are canonical sign-extended values already).
    genValue(*bin.lhs);
    if (!bin.widenTo64)
        convert(lt, bin.type);
    genValue(*bin.rhs);
    if (!bin.widenTo64)
        convert(rt, bin.type);
    applyIntOp(bin.op, bin.type, bin.widenTo64);
}

void
FuncLowering::genAssign(const AssignExpr &assign, bool need_value)
{
    const Type *target_type = assign.target->type;

    if (assign.compoundOp) {
        // Compute the address once; side effects in the target must
        // not be repeated.
        genAddr(*assign.target);
        emit(Op::Dup);
        load(target_type);

        if (target_type->isPointer()) {
            // ptr += i / ptr -= i
            genValue(*assign.value);
            const Type *pointee = target_type->pointee();
            emit(Op::PushI, 0, 0,
                 static_cast<std::int64_t>(
                     std::max<std::uint64_t>(pointee->size(), 1)));
            emit(Op::MulI);
            emit(*assign.compoundOp == BinaryOp::Add ? Op::AddI
                                                     : Op::SubI);
        } else if (*assign.compoundOp == BinaryOp::Shl ||
                   *assign.compoundOp == BinaryOp::Shr) {
            genValue(*assign.value);
            const bool is_32 = target_type->is32OrNarrower();
            if (ubsan())
                emit(is_32 ? Op::ChkShift32 : Op::ChkShift64);
            emit(is_32 ? Op::ShiftNorm32 : Op::ShiftNorm64,
                 static_cast<std::int32_t>(is_32 ? traits_.shift32
                                                 : traits_.shift64));
            if (*assign.compoundOp == BinaryOp::Shl)
                emit(Op::Shl);
            else
                emit(isSignedKind(target_type) ? Op::ShrS : Op::ShrU);
            narrow(target_type);
        } else if (target_type->isDouble() ||
                   assign.value->type->isDouble()) {
            const Type *op_type = program_.types->doubleType();
            convert(target_type, op_type);
            genValue(*assign.value);
            convert(assign.value->type, op_type);
            switch (*assign.compoundOp) {
              case BinaryOp::Add: emit(Op::AddF); break;
              case BinaryOp::Sub: emit(Op::SubF); break;
              case BinaryOp::Mul: emit(Op::MulF); break;
              case BinaryOp::Div: emit(Op::DivF); break;
              default:
                panic("invalid double compound operator");
            }
            convert(op_type, target_type);
        } else {
            const Type *op_type =
                arithCommon(target_type, assign.value->type);
            convert(target_type, op_type);
            genValue(*assign.value);
            convert(assign.value->type, op_type);
            applyIntOp(*assign.compoundOp, op_type, false);
            convert(op_type, target_type);
        }

        // Stack: [addr, result]
        if (need_value) {
            emit(Op::Dup);
            emit(Op::Rot3);
        }
        store(target_type);
        return;
    }

    // Plain assignment. The evaluation order between the target
    // address and the value is unspecified in C; the simulated gcc
    // evaluates the value first, clang the address first.
    if (traits_.argsRightToLeft) {
        genValue(*assign.value);
        convert(assign.value->type, target_type);
        genAddr(*assign.target);
        emit(Op::Swap);
    } else {
        genAddr(*assign.target);
        genValue(*assign.value);
        convert(assign.value->type, target_type);
    }
    // Stack: [addr, value]
    if (need_value) {
        emit(Op::Dup);
        emit(Op::Rot3);
    }
    store(target_type);
}

void
FuncLowering::genCall(const CallExpr &call)
{
    // cur_line() is resolved at compile time; its interpretation is
    // implementation-defined (the paper's "LINE" bug family).
    if (call.builtin == Builtin::CurLine) {
        const std::uint32_t line = traits_.lineIsStatementStart
                                       ? curLine_
                                       : call.loc().line;
        emit(Op::PushI, 0, 0, static_cast<std::int64_t>(line));
        return;
    }

    const TypeContext &types = *program_.types;

    // Expected parameter types (for canonical conversion).
    auto param_type = [&](std::size_t i) -> const Type * {
        if (call.builtin != Builtin::None) {
            switch (call.builtin) {
              case Builtin::PrintInt:
              case Builtin::PrintChar:
              case Builtin::Exit:
              case Builtin::InputByte:
              case Builtin::Probe:
                return types.intType();
              case Builtin::PrintUInt:
                return types.uintType();
              case Builtin::PrintLong:
                return types.longType();
              case Builtin::PrintHex:
                return types.ulongType();
              case Builtin::PrintF:
              case Builtin::SqrtF:
              case Builtin::FloorF:
              case Builtin::PowF:
                return types.doubleType();
              case Builtin::Malloc:
                return types.longType();
              case Builtin::Memset:
                return i == 1 ? types.intType() : i == 2
                           ? types.longType()
                           : nullptr;
              case Builtin::Memcpy:
                return i == 2 ? types.longType() : nullptr;
              default:
                return nullptr; // pointer-typed; no conversion
            }
        }
        const auto &callee = *program_.functions[
            static_cast<std::size_t>(call.funcIndex)];
        if (i < callee.params.size()) {
            const Type *t = callee.params[i].type;
            return t->isArray() ? nullptr : t;
        }
        return nullptr;
    };

    auto gen_arg = [&](std::size_t i) {
        genValue(*call.args[i]);
        if (const Type *want = param_type(i)) {
            if (want->isScalar())
                convert(call.args[i]->type, want);
        }
    };

    const auto argc = static_cast<std::int32_t>(call.args.size());
    const std::int64_t rtl = traits_.argsRightToLeft ? 1 : 0;
    if (traits_.argsRightToLeft) {
        for (std::size_t i = call.args.size(); i-- > 0;)
            gen_arg(i);
    } else {
        for (std::size_t i = 0; i < call.args.size(); i++)
            gen_arg(i);
    }

    if (call.builtin != Builtin::None) {
        emit(Op::CallB, static_cast<std::int32_t>(call.builtin), argc,
             rtl);
    } else {
        emit(Op::Call, call.funcIndex, argc, rtl);
    }
}

} // namespace

// ===================================================================
// Lowering (module level)
// ===================================================================

Lowering::Lowering(const minic::Program &program,
                   const CompilerConfig &config, const Traits &traits)
    : program_(program), config_(config), traits_(traits)
{}

std::uint32_t
Lowering::internRodata(const std::string &bytes)
{
    const auto offset = static_cast<std::uint32_t>(rodata_.size());
    rodata_.insert(rodata_.end(), bytes.begin(), bytes.end());
    rodata_.push_back(0);
    return offset;
}

void
Lowering::layoutGlobals(Module &module)
{
    std::vector<std::size_t> order(program_.globals.size());
    for (std::size_t i = 0; i < order.size(); i++)
        order[i] = i;

    auto size_of = [&](std::size_t i) {
        return program_.globals[i]->type->size();
    };
    switch (traits_.globalOrder) {
      case LayoutOrder::Declaration:
        break;
      case LayoutOrder::ReverseDeclaration:
        std::reverse(order.begin(), order.end());
        break;
      case LayoutOrder::SizeDescending:
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return size_of(a) > size_of(b);
                         });
        break;
      case LayoutOrder::SizeAscending:
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return size_of(a) < size_of(b);
                         });
        break;
    }

    module.globals.resize(program_.globals.size());
    const std::uint64_t gap =
        config_.sanitizer == Sanitizer::ASan ? 16 : 0;
    std::uint64_t offset = gap;
    for (std::size_t idx : order) {
        const GlobalDecl &decl = *program_.globals[idx];
        bytecode::GlobalLayout layout;
        layout.name = decl.name;
        layout.globalId = decl.globalId;
        layout.size = std::max<std::uint64_t>(decl.type->size(), 1);
        layout.align = std::max<std::uint64_t>(decl.type->align(), 1);
        offset = alignUp(offset, layout.align);
        layout.segmentOffset = offset;
        offset += layout.size + gap;

        if (decl.init) {
            switch (decl.init->kind()) {
              case ExprKind::IntLit:
                layout.init = bytecode::GlobalLayout::Init::Word;
                layout.initWord =
                    static_cast<const IntLitExpr &>(*decl.init).value;
                layout.valueSize = scalarWidth(decl.type);
                break;
              case ExprKind::FloatLit:
                layout.init = bytecode::GlobalLayout::Init::Word;
                layout.initWord = bytecode::doubleToBits(
                    static_cast<const FloatLitExpr &>(*decl.init)
                        .value);
                layout.valueSize = 8;
                break;
              case ExprKind::StrLit:
                layout.init = bytecode::GlobalLayout::Init::Rodata;
                layout.initWord = internRodata(
                    static_cast<const StrLitExpr &>(*decl.init)
                        .bytes);
                layout.valueSize = 8;
                break;
              default:
                break;
            }
        }
        module.globals[static_cast<std::size_t>(decl.globalId)] =
            std::move(layout);
    }
    module.globalsSegmentSize = alignUp(offset + gap, 16);
}

namespace
{

/** Every statement's line (genStmt: its instructions' line and
 *  gcc's cur_line()) plus its cur_line() call lines, in print
 *  order. */
void
addLines(support::HashCombiner &lines, const minic::Stmt &stmt)
{
    // The cur_line() call lines (clang's reading of cur_line(),
    // genCall). The call takes no arguments, so the children-first
    // walk meets the calls in print order.
    const auto expr = [&](const ExprPtr &e) {
        if (!e)
            return;
        walkNodes(*e, [&](const Expr &node) {
            if (node.kind() == ExprKind::Call &&
                static_cast<const CallExpr &>(node).builtin ==
                    Builtin::CurLine)
                lines.add(node.loc().line);
        });
    };
    lines.add(stmt.loc().line);
    switch (stmt.kind()) {
      case StmtKind::Block:
        for (const auto &child :
             static_cast<const BlockStmt &>(stmt).body)
            addLines(lines, *child);
        return;
      case StmtKind::VarDecl:
        expr(static_cast<const VarDeclStmt &>(stmt).init);
        return;
      case StmtKind::If: {
        const auto &if_stmt = static_cast<const IfStmt &>(stmt);
        expr(if_stmt.cond);
        addLines(lines, *if_stmt.thenStmt);
        if (if_stmt.elseStmt)
            addLines(lines, *if_stmt.elseStmt);
        return;
      }
      case StmtKind::While:
        expr(static_cast<const WhileStmt &>(stmt).cond);
        addLines(lines, *static_cast<const WhileStmt &>(stmt).body);
        return;
      case StmtKind::For: {
        const auto &for_stmt = static_cast<const ForStmt &>(stmt);
        if (for_stmt.init)
            addLines(lines, *for_stmt.init);
        expr(for_stmt.cond);
        expr(for_stmt.step);
        addLines(lines, *for_stmt.body);
        return;
      }
      case StmtKind::Return:
        expr(static_cast<const ReturnStmt &>(stmt).value);
        return;
      case StmtKind::ExprStmt:
        expr(static_cast<const ExprStmt &>(stmt).expr);
        return;
      case StmtKind::Break:
      case StmtKind::Continue:
        return;
    }
}

} // namespace

std::uint64_t
sourceLineFingerprint(const minic::Program &program)
{
    support::HashCombiner lines(0x11E5u);
    for (const auto &func : program.functions) {
        if (func->body)
            addLines(lines, *func->body);
    }
    return lines.digest();
}

bytecode::Module
Lowering::lower(
    const std::vector<std::unique_ptr<minic::FunctionDecl>> &funcs)
{
    Module module;
    layoutGlobals(module);

    for (const auto &func : funcs) {
        FuncLowering fl(program_, config_, traits_, *func, rodata_);
        module.functions.push_back(fl.lower());
        if (func->name == "main")
            module.mainIndex = func->index;
    }
    module.rodata = std::move(rodata_);
    return module;
}

} // namespace compdiff::compiler
