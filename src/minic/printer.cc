#include "minic/printer.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <sstream>

namespace compdiff::minic
{

namespace
{

std::string
pad(int indent)
{
    return std::string(static_cast<std::size_t>(indent) * 4, ' ');
}

std::string
escape(const std::string &raw)
{
    std::string out;
    for (char c : raw) {
        switch (c) {
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\0': out += "\\0"; break;
          default: out += c;
        }
    }
    return out;
}

/**
 * A float literal that the lexer reads back as the same double: the
 * shortest round-trip digits, with a '.' in the mantissa (`1` would
 * lex as an int and `1e+06` as `1` then `e`). A negative value (only
 * passes create one) prints as a parenthesized negation, an atom
 * wherever the literal stood. The lexer has no spelling for the
 * non-finite values, so +inf is `1.0e999` (strtod rounds it to inf)
 * and NaN is `(0.0 / 0.0)`, which prints the same again after a
 * reparse.
 */
std::string
floatLiteral(double value)
{
    if (std::isnan(value))
        return "(0.0 / 0.0)";
    if (std::signbit(value))
        return "(-" + floatLiteral(-value) + ")";
    if (std::isinf(value))
        return "1.0e999";
    char buf[32];
    const auto end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
    std::string digits(buf, end);
    const std::size_t exp = std::min(digits.find('e'), digits.size());
    if (digits.find('.') == std::string::npos)
        digits.insert(exp, ".0");
    return digits;
}

/**
 * Where a statement's header stands while it prints. Lowering reads
 * cur_line() two ways (compiler/lowering.cc): as the line of the
 * statement being lowered (gcc) or as the call's own line (clang).
 * The printer puts a statement header on one line, which would erase
 * that difference, so a cur_line() call that sat on a later line than
 * its statement moves down by the same number of lines. The reparsed
 * program reads the same offsets, and printing it again gives the
 * same text.
 */
struct LineCursor
{
    /** Source line lowering charges the header's expressions to. */
    std::uint32_t anchor = 0;
    /** Newlines printed since the header began. */
    std::uint32_t offset = 0;
    int indent = 0;
};

std::string printExprAt(const Expr &expr, LineCursor *cursor);

/** A VarDecl or ExprStmt with its ';' but no indentation or newline:
 *  the form it takes both as a statement and as a for-init. */
std::string
printSimpleStmt(const Stmt &stmt, LineCursor &cursor)
{
    if (stmt.kind() == StmtKind::ExprStmt) {
        return printExprAt(*static_cast<const ExprStmt &>(stmt).expr,
                           &cursor) +
               ";";
    }
    if (stmt.kind() != StmtKind::VarDecl)
        return "?;";
    const auto &decl = static_cast<const VarDeclStmt &>(stmt);
    std::ostringstream os;
    if (decl.declType->isArray()) {
        os << decl.declType->element()->str() << " " << decl.name << "["
           << decl.declType->arrayLength() << "]";
    } else {
        os << decl.declType->str() << " " << decl.name;
    }
    if (decl.init)
        os << " = " << printExprAt(*decl.init, &cursor);
    os << ";";
    return os.str();
}

std::string
printExprAt(const Expr &expr, LineCursor *cursor)
{
    std::ostringstream os;
    switch (expr.kind()) {
      case ExprKind::IntLit: {
        const auto &lit = static_cast<const IntLitExpr &>(expr);
        os << lit.value;
        if (lit.isLong ||
            (expr.type && expr.type->kind() == TypeKind::Long))
            os << "L";
        if (lit.isUnsigned ||
            (expr.type && expr.type->kind() == TypeKind::UInt))
            os << "U";
        return os.str();
      }
      case ExprKind::FloatLit:
        return floatLiteral(
            static_cast<const FloatLitExpr &>(expr).value);
      case ExprKind::StrLit:
        return "\"" +
               escape(static_cast<const StrLitExpr &>(expr).bytes) +
               "\"";
      case ExprKind::VarRef:
        return static_cast<const VarRefExpr &>(expr).name;
      case ExprKind::Unary: {
        const auto &un = static_cast<const UnaryExpr &>(expr);
        const char *spelling = "";
        switch (un.op) {
          case UnaryOp::Neg: spelling = "-"; break;
          case UnaryOp::BitNot: spelling = "~"; break;
          case UnaryOp::LogNot: spelling = "!"; break;
          case UnaryOp::Deref: spelling = "*"; break;
          case UnaryOp::AddrOf: spelling = "&"; break;
        }
        return std::string(spelling) +
               printExprAt(*un.operand, cursor);
      }
      case ExprKind::Binary: {
        const auto &bin = static_cast<const BinaryExpr &>(expr);
        os << "(" << printExprAt(*bin.lhs, cursor) << " "
           << binaryOpSpelling(bin.op) << " "
           << printExprAt(*bin.rhs, cursor) << ")";
        if (bin.widenTo64)
            os << "/*widened*/";
        return os.str();
      }
      case ExprKind::Assign: {
        const auto &assign = static_cast<const AssignExpr &>(expr);
        os << printExprAt(*assign.target, cursor) << " ";
        if (assign.compoundOp)
            os << binaryOpSpelling(*assign.compoundOp);
        os << "= " << printExprAt(*assign.value, cursor);
        return os.str();
      }
      case ExprKind::Cond: {
        const auto &cond = static_cast<const CondExpr &>(expr);
        os << "(" << printExprAt(*cond.cond, cursor) << " ? "
           << printExprAt(*cond.thenExpr, cursor) << " : "
           << printExprAt(*cond.elseExpr, cursor) << ")";
        return os.str();
      }
      case ExprKind::Call: {
        const auto &call = static_cast<const CallExpr &>(expr);
        if (cursor && call.builtin == Builtin::CurLine &&
            call.loc().line > cursor->anchor + cursor->offset) {
            const std::uint32_t target =
                call.loc().line - cursor->anchor;
            os << std::string(target - cursor->offset, '\n')
               << pad(cursor->indent + 1);
            cursor->offset = target;
        }
        os << call.callee << "(";
        for (std::size_t i = 0; i < call.args.size(); i++) {
            if (i)
                os << ", ";
            os << printExprAt(*call.args[i], cursor);
        }
        os << ")";
        return os.str();
      }
      case ExprKind::Index: {
        const auto &index = static_cast<const IndexExpr &>(expr);
        os << printExprAt(*index.base, cursor) << "["
           << printExprAt(*index.index, cursor) << "]";
        return os.str();
      }
      case ExprKind::Member: {
        const auto &member = static_cast<const MemberExpr &>(expr);
        os << printExprAt(*member.base, cursor)
           << (member.isArrow ? "->" : ".") << member.field;
        return os.str();
      }
      case ExprKind::Cast: {
        const auto &cast = static_cast<const CastExpr &>(expr);
        os << "(" << cast.target->str() << ")"
           << printExprAt(*cast.operand, cursor);
        return os.str();
      }
      case ExprKind::SizeOf:
        os << "sizeof("
           << static_cast<const SizeOfExpr &>(expr).queried->str()
           << ")";
        return os.str();
    }
    return "?";
}

} // namespace

std::string
printExpr(const Expr &expr)
{
    return printExprAt(expr, nullptr);
}

std::string
printStmt(const Stmt &stmt, int indent)
{
    std::ostringstream os;
    LineCursor cursor{stmt.loc().line, 0, indent};
    switch (stmt.kind()) {
      case StmtKind::Block: {
        os << pad(indent) << "{\n";
        for (const auto &child :
             static_cast<const BlockStmt &>(stmt).body)
            os << printStmt(*child, indent + 1);
        os << pad(indent) << "}\n";
        return os.str();
      }
      case StmtKind::VarDecl:
      case StmtKind::ExprStmt:
        return pad(indent) + printSimpleStmt(stmt, cursor) + "\n";
      case StmtKind::If: {
        const auto &if_stmt = static_cast<const IfStmt &>(stmt);
        os << pad(indent) << "if ("
           << printExprAt(*if_stmt.cond, &cursor) << ")\n"
           << printStmt(*if_stmt.thenStmt, indent);
        if (if_stmt.elseStmt) {
            os << pad(indent) << "else\n"
               << printStmt(*if_stmt.elseStmt, indent);
        }
        return os.str();
      }
      case StmtKind::While: {
        const auto &while_stmt =
            static_cast<const WhileStmt &>(stmt);
        os << pad(indent) << "while ("
           << printExprAt(*while_stmt.cond, &cursor) << ")\n"
           << printStmt(*while_stmt.body, indent);
        return os.str();
      }
      case StmtKind::For: {
        const auto &for_stmt = static_cast<const ForStmt &>(stmt);
        os << pad(indent) << "for (";
        // Lowering charges the init and the condition to the init
        // statement, and the step to the for itself.
        if (for_stmt.init) {
            cursor.anchor = for_stmt.init->loc().line;
            os << printSimpleStmt(*for_stmt.init, cursor);
        } else {
            os << ";";
        }
        os << " ";
        if (for_stmt.cond)
            os << printExprAt(*for_stmt.cond, &cursor);
        os << "; ";
        cursor.anchor = stmt.loc().line;
        if (for_stmt.step)
            os << printExprAt(*for_stmt.step, &cursor);
        os << ")\n" << printStmt(*for_stmt.body, indent);
        return os.str();
      }
      case StmtKind::Return: {
        const auto &ret = static_cast<const ReturnStmt &>(stmt);
        os << pad(indent) << "return";
        if (ret.value)
            os << " " << printExprAt(*ret.value, &cursor);
        os << ";\n";
        return os.str();
      }
      case StmtKind::Break:
        return pad(indent) + "break;\n";
      case StmtKind::Continue:
        return pad(indent) + "continue;\n";
    }
    return pad(indent) + "?;\n";
}

std::string
printFunction(const FunctionDecl &func)
{
    std::ostringstream os;
    os << func.returnType->str() << " " << func.name << "(";
    for (std::size_t i = 0; i < func.params.size(); i++) {
        if (i)
            os << ", ";
        os << func.params[i].type->str() << " "
           << func.params[i].name;
    }
    os << ")\n";
    if (func.body)
        os << printStmt(*func.body, 0);
    return os.str();
}

std::string
printProgram(const Program &program)
{
    std::ostringstream os;
    for (const StructInfo *info : program.types->allStructs()) {
        os << "struct " << info->name << " {\n";
        for (const auto &field : info->fields) {
            if (field.type->isArray()) {
                os << "    " << field.type->element()->str() << " "
                   << field.name << "["
                   << field.type->arrayLength() << "];\n";
            } else {
                os << "    " << field.type->str() << " "
                   << field.name << ";\n";
            }
        }
        os << "};\n";
    }
    for (const auto &global : program.globals) {
        if (global->type->isArray()) {
            os << global->type->element()->str() << " "
               << global->name << "["
               << global->type->arrayLength() << "]";
        } else {
            os << global->type->str() << " " << global->name;
        }
        if (global->init)
            os << " = " << printExpr(*global->init);
        os << ";\n";
    }
    if (!program.globals.empty())
        os << "\n";
    for (const auto &func : program.functions)
        os << printFunction(*func) << "\n";
    return os.str();
}

} // namespace compdiff::minic
