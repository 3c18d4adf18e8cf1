#pragma once

/**
 * @file
 * The MiniC abstract syntax tree.
 *
 * The AST is produced by the parser, annotated in place by semantic
 * analysis (types, symbol ids), and then consumed by three independent
 * clients: the static analyzers (read-only), the optimizing compiler
 * (which clones functions per compiler configuration before applying
 * UB-exploiting transforms), and the test-suite generators. Every node
 * therefore supports deep clone() with annotations preserved.
 */

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "minic/type.hh"
#include "support/diagnostics.hh"

namespace compdiff::minic
{

using support::SourceLoc;

/** Unary operator kinds. */
enum class UnaryOp
{
    Neg,    ///< -x
    BitNot, ///< ~x
    LogNot, ///< !x
    Deref,  ///< *p
    AddrOf, ///< &lvalue
};

/** Binary operator kinds (assignment is a separate node). */
enum class BinaryOp
{
    Add, Sub, Mul, Div, Rem,
    Shl, Shr,
    BitAnd, BitOr, BitXor,
    Lt, Le, Gt, Ge, Eq, Ne,
    LogAnd, LogOr,
};

/** Spelling of a binary operator ("+", "<=", ...). */
const char *binaryOpSpelling(BinaryOp op);

/** True for Lt/Le/Gt/Ge/Eq/Ne. */
bool isComparison(BinaryOp op);

/**
 * Built-in functions recognized by semantic analysis. Their run-time
 * semantics live in the VM; several of them are the hooks through
 * which implementation-defined and undefined behavior enters MiniC
 * programs (cur_line, time_stamp, bad_rand, ...).
 */
enum class Builtin
{
    None,      ///< not a builtin (user-defined function)
    PrintInt,  ///< print_int(int)
    PrintUInt, ///< print_uint(uint)
    PrintLong, ///< print_long(long)
    PrintChar, ///< print_char(int)
    PrintStr,  ///< print_str(char *)
    PrintF,    ///< print_f(double) — %.12g formatting
    PrintHex,  ///< print_hex(ulong)
    PrintPtr,  ///< print_ptr(char *) — prints the raw address
    Newline,   ///< newline()
    InputSize, ///< input_size() -> int
    InputByte, ///< input_byte(int) -> int, -1 when out of range
    ReadByte,  ///< read_byte() -> int, cursor-based, -1 at EOF
    Malloc,    ///< malloc(long) -> char *
    Free,      ///< free(char *)
    Memset,    ///< memset(char *, int, long)
    Memcpy,    ///< memcpy(char *, char *, long) — overlap is UB
    Strlen,    ///< strlen(char *) -> long
    Strcpy,    ///< strcpy(char *, char *)
    Strcmp,    ///< strcmp(char *, char *) -> int
    Exit,      ///< exit(int)
    Abort,     ///< abort()
    CurLine,   ///< cur_line() -> int; implementation-defined value
    PowF,      ///< pow_f(double, double) -> double
    SqrtF,     ///< sqrt_f(double) -> double
    FloorF,    ///< floor_f(double) -> double
    TimeStamp, ///< time_stamp() -> long; varies per execution
    BadRand,   ///< bad_rand() -> int; reads undefined memory
    Probe,     ///< probe(int); ground-truth side channel, no output
};

/** Number of parameters a builtin takes, or -1 if not a builtin. */
int builtinArity(Builtin builtin);

/** Resolve a callee name to a builtin; Builtin::None if unknown. */
Builtin builtinFromName(const std::string &name);

class Expr;
class Stmt;
using ExprPtr = std::unique_ptr<Expr>;
using StmtPtr = std::unique_ptr<Stmt>;

/** Expression node kinds, for switch-based dispatch. */
enum class ExprKind
{
    IntLit, FloatLit, StrLit, VarRef, Unary, Binary, Assign, Cond,
    Call, Index, Member, Cast, SizeOf,
};

/**
 * Base class of all MiniC expressions.
 */
class Expr
{
  public:
    explicit Expr(ExprKind kind, SourceLoc loc)
        : kind_(kind), loc_(loc)
    {}
    virtual ~Expr() = default;

    ExprKind kind() const { return kind_; }
    SourceLoc loc() const { return loc_; }

    /** Deep copy with all semantic annotations preserved. */
    virtual ExprPtr clone() const = 0;

    /** Result type; set by semantic analysis (or by transforms). */
    const Type *type = nullptr;

  protected:
    void copyAnnotations(Expr &dst) const { dst.type = type; }

  private:
    ExprKind kind_;
    SourceLoc loc_;
};

/** Integer literal (also the result of constant folding). */
class IntLitExpr : public Expr
{
  public:
    IntLitExpr(SourceLoc loc, std::int64_t value)
        : Expr(ExprKind::IntLit, loc), value(value)
    {}

    ExprPtr clone() const override;

    std::int64_t value;
    bool isLong = false;     ///< literal had an L suffix
    bool isUnsigned = false; ///< literal had a U suffix
};

/** Double literal. */
class FloatLitExpr : public Expr
{
  public:
    FloatLitExpr(SourceLoc loc, double value)
        : Expr(ExprKind::FloatLit, loc), value(value)
    {}

    ExprPtr clone() const override;

    double value;
};

/** String literal; lowered to a read-only data blob. */
class StrLitExpr : public Expr
{
  public:
    StrLitExpr(SourceLoc loc, std::string bytes)
        : Expr(ExprKind::StrLit, loc), bytes(std::move(bytes))
    {}

    ExprPtr clone() const override;

    /** Raw bytes, NUL terminator not included. */
    std::string bytes;
};

/** Reference to a local, parameter, or global variable. */
class VarRefExpr : public Expr
{
  public:
    VarRefExpr(SourceLoc loc, std::string name)
        : Expr(ExprKind::VarRef, loc), name(std::move(name))
    {}

    ExprPtr clone() const override;

    std::string name;
    bool isGlobal = false; ///< set by sema
    int id = -1;           ///< localId or globalId, set by sema
};

/** Unary operation. */
class UnaryExpr : public Expr
{
  public:
    UnaryExpr(SourceLoc loc, UnaryOp op, ExprPtr operand)
        : Expr(ExprKind::Unary, loc), op(op),
          operand(std::move(operand))
    {}

    ExprPtr clone() const override;

    UnaryOp op;
    ExprPtr operand;
};

/** Binary operation. */
class BinaryExpr : public Expr
{
  public:
    BinaryExpr(SourceLoc loc, BinaryOp op, ExprPtr lhs, ExprPtr rhs)
        : Expr(ExprKind::Binary, loc), op(op), lhs(std::move(lhs)),
          rhs(std::move(rhs))
    {}

    ExprPtr clone() const override;

    BinaryOp op;
    ExprPtr lhs;
    ExprPtr rhs;

    /**
     * Set by the arithmetic-widening transform: evaluate this 32-bit
     * operation in 64 bits without truncating the intermediate result
     * (legal because signed overflow would be UB).
     */
    bool widenTo64 = false;
};

/** Assignment, simple or compound. The target must be an lvalue. */
class AssignExpr : public Expr
{
  public:
    AssignExpr(SourceLoc loc, ExprPtr target, ExprPtr value,
               std::optional<BinaryOp> compound_op = std::nullopt)
        : Expr(ExprKind::Assign, loc), target(std::move(target)),
          value(std::move(value)), compoundOp(compound_op)
    {}

    ExprPtr clone() const override;

    ExprPtr target;
    ExprPtr value;
    /** For `a op= b`, the underlying op; empty for plain `=`. */
    std::optional<BinaryOp> compoundOp;
};

/** Ternary conditional. */
class CondExpr : public Expr
{
  public:
    CondExpr(SourceLoc loc, ExprPtr cond, ExprPtr then_expr,
             ExprPtr else_expr)
        : Expr(ExprKind::Cond, loc), cond(std::move(cond)),
          thenExpr(std::move(then_expr)), elseExpr(std::move(else_expr))
    {}

    ExprPtr clone() const override;

    ExprPtr cond;
    ExprPtr thenExpr;
    ExprPtr elseExpr;
};

/** Function call (user function or builtin). */
class CallExpr : public Expr
{
  public:
    CallExpr(SourceLoc loc, std::string callee,
             std::vector<ExprPtr> args)
        : Expr(ExprKind::Call, loc), callee(std::move(callee)),
          args(std::move(args))
    {}

    ExprPtr clone() const override;

    std::string callee;
    std::vector<ExprPtr> args;
    Builtin builtin = Builtin::None; ///< set by sema
    int funcIndex = -1;              ///< user function index, by sema
};

/** Array/pointer subscription. */
class IndexExpr : public Expr
{
  public:
    IndexExpr(SourceLoc loc, ExprPtr base, ExprPtr index)
        : Expr(ExprKind::Index, loc), base(std::move(base)),
          index(std::move(index))
    {}

    ExprPtr clone() const override;

    ExprPtr base;
    ExprPtr index;
};

/** Struct member access, `s.f` or `p->f`. */
class MemberExpr : public Expr
{
  public:
    MemberExpr(SourceLoc loc, ExprPtr base, std::string field,
               bool is_arrow)
        : Expr(ExprKind::Member, loc), base(std::move(base)),
          field(std::move(field)), isArrow(is_arrow)
    {}

    ExprPtr clone() const override;

    ExprPtr base;
    std::string field;
    bool isArrow;
    std::uint64_t fieldOffset = 0; ///< set by sema
};

/** C-style cast. */
class CastExpr : public Expr
{
  public:
    CastExpr(SourceLoc loc, const Type *target, ExprPtr operand)
        : Expr(ExprKind::Cast, loc), target(target),
          operand(std::move(operand))
    {}

    ExprPtr clone() const override;

    const Type *target;
    ExprPtr operand;
};

/** sizeof(type); folded to a constant by lowering. */
class SizeOfExpr : public Expr
{
  public:
    SizeOfExpr(SourceLoc loc, const Type *queried)
        : Expr(ExprKind::SizeOf, loc), queried(queried)
    {}

    ExprPtr clone() const override;

    const Type *queried;
};

/** Statement node kinds. */
enum class StmtKind
{
    Block, VarDecl, If, While, For, Return, Break, Continue, ExprStmt,
};

/**
 * Base class of all MiniC statements.
 */
class Stmt
{
  public:
    explicit Stmt(StmtKind kind, SourceLoc loc) : kind_(kind), loc_(loc)
    {}
    virtual ~Stmt() = default;

    StmtKind kind() const { return kind_; }
    SourceLoc loc() const { return loc_; }

    /** Deep copy with all semantic annotations preserved. */
    virtual StmtPtr clone() const = 0;

  private:
    StmtKind kind_;
    SourceLoc loc_;
};

/** `{ ... }` */
class BlockStmt : public Stmt
{
  public:
    explicit BlockStmt(SourceLoc loc) : Stmt(StmtKind::Block, loc) {}

    StmtPtr clone() const override;

    std::vector<StmtPtr> body;
};

/** Local variable declaration with optional initializer. */
class VarDeclStmt : public Stmt
{
  public:
    VarDeclStmt(SourceLoc loc, const Type *decl_type, std::string name,
                ExprPtr init)
        : Stmt(StmtKind::VarDecl, loc), declType(decl_type),
          name(std::move(name)), init(std::move(init))
    {}

    StmtPtr clone() const override;

    const Type *declType;
    std::string name;
    ExprPtr init; ///< may be null (then the storage is uninitialized)
    int localId = -1; ///< set by sema
};

/** `if (...) ... else ...` */
class IfStmt : public Stmt
{
  public:
    IfStmt(SourceLoc loc, ExprPtr cond, StmtPtr then_stmt,
           StmtPtr else_stmt)
        : Stmt(StmtKind::If, loc), cond(std::move(cond)),
          thenStmt(std::move(then_stmt)), elseStmt(std::move(else_stmt))
    {}

    StmtPtr clone() const override;

    ExprPtr cond;
    StmtPtr thenStmt;
    StmtPtr elseStmt; ///< may be null
};

/** `while (...) ...` */
class WhileStmt : public Stmt
{
  public:
    WhileStmt(SourceLoc loc, ExprPtr cond, StmtPtr body)
        : Stmt(StmtKind::While, loc), cond(std::move(cond)),
          body(std::move(body))
    {}

    StmtPtr clone() const override;

    ExprPtr cond;
    StmtPtr body;
};

/** `for (init; cond; step) ...` — any clause may be absent. */
class ForStmt : public Stmt
{
  public:
    ForStmt(SourceLoc loc, StmtPtr init, ExprPtr cond, ExprPtr step,
            StmtPtr body)
        : Stmt(StmtKind::For, loc), init(std::move(init)),
          cond(std::move(cond)), step(std::move(step)),
          body(std::move(body))
    {}

    StmtPtr clone() const override;

    StmtPtr init; ///< VarDecl or ExprStmt; may be null
    ExprPtr cond; ///< may be null (infinite)
    ExprPtr step; ///< may be null
    StmtPtr body;
};

/** `return expr;` or `return;` */
class ReturnStmt : public Stmt
{
  public:
    ReturnStmt(SourceLoc loc, ExprPtr value)
        : Stmt(StmtKind::Return, loc), value(std::move(value))
    {}

    StmtPtr clone() const override;

    ExprPtr value; ///< may be null
};

/** `break;` */
class BreakStmt : public Stmt
{
  public:
    explicit BreakStmt(SourceLoc loc) : Stmt(StmtKind::Break, loc) {}
    StmtPtr clone() const override;
};

/** `continue;` */
class ContinueStmt : public Stmt
{
  public:
    explicit ContinueStmt(SourceLoc loc)
        : Stmt(StmtKind::Continue, loc)
    {}
    StmtPtr clone() const override;
};

/** Expression evaluated for its side effects. */
class ExprStmt : public Stmt
{
  public:
    ExprStmt(SourceLoc loc, ExprPtr expr)
        : Stmt(StmtKind::ExprStmt, loc), expr(std::move(expr))
    {}

    StmtPtr clone() const override;

    ExprPtr expr;
};

/** One function parameter. */
struct ParamDecl
{
    const Type *type = nullptr;
    std::string name;
    int localId = -1; ///< set by sema
    SourceLoc loc;
};

/**
 * Storage slot descriptor for a local variable or parameter; the list
 * is populated by semantic analysis and indexed by localId. The
 * backend assigns per-configuration frame offsets from it.
 */
struct LocalSlot
{
    const Type *type = nullptr;
    std::string name;
    bool isParam = false;
};

/** A function definition. */
class FunctionDecl
{
  public:
    const Type *returnType = nullptr;
    std::string name;
    std::vector<ParamDecl> params;
    std::unique_ptr<BlockStmt> body;
    SourceLoc loc;

    int index = -1;                ///< position in Program::functions
    std::vector<LocalSlot> locals; ///< set by sema, indexed by localId

    /** Deep copy (annotations preserved). */
    std::unique_ptr<FunctionDecl> clone() const;
};

/** A global variable definition. */
class GlobalDecl
{
  public:
    const Type *type = nullptr;
    std::string name;
    /** Constant initializer; may be null (then zero-initialized). */
    ExprPtr init;
    SourceLoc loc;
    int globalId = -1; ///< set by sema

    std::unique_ptr<GlobalDecl> clone() const;
};

/**
 * A parsed (and, after Sema, annotated) MiniC program.
 *
 * Owns the TypeContext so that cloned functions can keep referring to
 * the same interned types.
 */
class Program
{
  public:
    Program() : types(std::make_unique<TypeContext>()) {}

    Program(const Program &) = delete;
    Program &operator=(const Program &) = delete;

    std::unique_ptr<TypeContext> types;
    std::vector<std::unique_ptr<GlobalDecl>> globals;
    std::vector<std::unique_ptr<FunctionDecl>> functions;

    /** Find a function by name; nullptr if absent. */
    const FunctionDecl *findFunction(const std::string &name) const;
    FunctionDecl *findFunction(const std::string &name);
};

} // namespace compdiff::minic
