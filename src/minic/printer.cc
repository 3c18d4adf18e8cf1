#include "minic/printer.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>

namespace compdiff::minic
{

namespace
{

// Every printer appends to one output string, so printing is linear
// in the text it produces.

void
appendPad(std::string &out, int indent)
{
    out.append(static_cast<std::size_t>(indent) * 4, ' ');
}

void
appendEscaped(std::string &out, const std::string &raw)
{
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
}

/** `type name`, or `element name[length]` for an array. */
void
appendDeclarator(std::string &out, const Type &type,
                 const std::string &name)
{
    const bool array = type.isArray();
    out += array ? type.element()->str() : type.str();
    out += ' ';
    out += name;
    if (array) {
        out += '[';
        out += std::to_string(type.arrayLength());
        out += ']';
    }
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
void
appendFloat(std::string &out, double value)
{
    if (std::isnan(value)) {
        out += "(0.0 / 0.0)";
        return;
    }
    if (std::signbit(value)) {
        out += "(-";
        appendFloat(out, -value);
        out += ')';
        return;
    }
    if (std::isinf(value)) {
        out += "1.0e999";
        return;
    }
    char buf[32];
    const auto end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
    std::string digits(buf, end);
    const std::size_t exp = std::min(digits.find('e'), digits.size());
    if (digits.find('.') == std::string::npos)
        digits.insert(exp, ".0");
    out += digits;
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

void appendExpr(std::string &out, const Expr &expr, LineCursor *cursor);

/**
 * An operand of a tighter operator, or a ?: condition or else branch.
 * An assignment there prints in parentheses: the parser reads the
 * assignment operator last, so `(a = b) + c` would reparse as
 * `a = (b + c)`.
 */
void
appendOperand(std::string &out, const Expr &expr, LineCursor *cursor)
{
    const bool group = expr.kind() == ExprKind::Assign;
    if (group)
        out += '(';
    appendExpr(out, expr, cursor);
    if (group)
        out += ')';
}

/** A VarDecl or ExprStmt with its ';' but no indentation or newline:
 *  the form it takes both as a statement and as a for-init. */
void
appendSimpleStmt(std::string &out, const Stmt &stmt, LineCursor &cursor)
{
    if (stmt.kind() == StmtKind::ExprStmt) {
        appendExpr(out, *static_cast<const ExprStmt &>(stmt).expr,
                   &cursor);
    } else if (stmt.kind() == StmtKind::VarDecl) {
        const auto &decl = static_cast<const VarDeclStmt &>(stmt);
        appendDeclarator(out, *decl.declType, decl.name);
        if (decl.init) {
            out += " = ";
            appendExpr(out, *decl.init, &cursor);
        }
    } else {
        out += '?';
    }
    out += ';';
}

void
appendExpr(std::string &out, const Expr &expr, LineCursor *cursor)
{
    switch (expr.kind()) {
      case ExprKind::IntLit: {
        const auto &lit = static_cast<const IntLitExpr &>(expr);
        out += std::to_string(lit.value);
        if (lit.isLong ||
            (expr.type && expr.type->kind() == TypeKind::Long))
            out += 'L';
        if (lit.isUnsigned ||
            (expr.type && expr.type->kind() == TypeKind::UInt))
            out += 'U';
        return;
      }
      case ExprKind::FloatLit:
        appendFloat(out, static_cast<const FloatLitExpr &>(expr).value);
        return;
      case ExprKind::StrLit:
        out += '"';
        appendEscaped(out, static_cast<const StrLitExpr &>(expr).bytes);
        out += '"';
        return;
      case ExprKind::VarRef:
        out += static_cast<const VarRefExpr &>(expr).name;
        return;
      case ExprKind::Unary: {
        const auto &un = static_cast<const UnaryExpr &>(expr);
        switch (un.op) {
          case UnaryOp::Neg: out += '-'; break;
          case UnaryOp::BitNot: out += '~'; break;
          case UnaryOp::LogNot: out += '!'; break;
          case UnaryOp::Deref: out += '*'; break;
          case UnaryOp::AddrOf: out += '&'; break;
        }
        appendOperand(out, *un.operand, cursor);
        return;
      }
      case ExprKind::Binary: {
        const auto &bin = static_cast<const BinaryExpr &>(expr);
        out += '(';
        appendOperand(out, *bin.lhs, cursor);
        out += ' ';
        out += binaryOpSpelling(bin.op);
        out += ' ';
        appendOperand(out, *bin.rhs, cursor);
        out += ')';
        if (bin.widenTo64)
            out += "/*widened*/";
        return;
      }
      case ExprKind::Assign: {
        const auto &assign = static_cast<const AssignExpr &>(expr);
        appendExpr(out, *assign.target, cursor);
        out += ' ';
        if (assign.compoundOp)
            out += binaryOpSpelling(*assign.compoundOp);
        out += "= ";
        appendExpr(out, *assign.value, cursor);
        return;
      }
      case ExprKind::Cond: {
        const auto &cond = static_cast<const CondExpr &>(expr);
        out += '(';
        appendOperand(out, *cond.cond, cursor);
        out += " ? ";
        appendExpr(out, *cond.thenExpr, cursor);
        out += " : ";
        appendOperand(out, *cond.elseExpr, cursor);
        out += ')';
        return;
      }
      case ExprKind::Call: {
        const auto &call = static_cast<const CallExpr &>(expr);
        if (cursor && call.builtin == Builtin::CurLine &&
            call.loc().line > cursor->anchor + cursor->offset) {
            const std::uint32_t target =
                call.loc().line - cursor->anchor;
            out.append(target - cursor->offset, '\n');
            appendPad(out, cursor->indent + 1);
            cursor->offset = target;
        }
        out += call.callee;
        out += '(';
        for (std::size_t i = 0; i < call.args.size(); i++) {
            if (i)
                out += ", ";
            appendExpr(out, *call.args[i], cursor);
        }
        out += ')';
        return;
      }
      case ExprKind::Index: {
        const auto &index = static_cast<const IndexExpr &>(expr);
        appendOperand(out, *index.base, cursor);
        out += '[';
        appendExpr(out, *index.index, cursor);
        out += ']';
        return;
      }
      case ExprKind::Member: {
        const auto &member = static_cast<const MemberExpr &>(expr);
        appendOperand(out, *member.base, cursor);
        out += member.isArrow ? "->" : ".";
        out += member.field;
        return;
      }
      case ExprKind::Cast: {
        const auto &cast = static_cast<const CastExpr &>(expr);
        out += '(';
        out += cast.target->str();
        out += ')';
        appendOperand(out, *cast.operand, cursor);
        return;
      }
      case ExprKind::SizeOf:
        out += "sizeof(";
        out += static_cast<const SizeOfExpr &>(expr).queried->str();
        out += ')';
        return;
    }
    out += '?';
}

void
appendStmt(std::string &out, const Stmt &stmt, int indent)
{
    LineCursor cursor{stmt.loc().line, 0, indent};
    appendPad(out, indent);
    switch (stmt.kind()) {
      case StmtKind::Block:
        out += "{\n";
        for (const auto &child :
             static_cast<const BlockStmt &>(stmt).body)
            appendStmt(out, *child, indent + 1);
        appendPad(out, indent);
        out += "}\n";
        return;
      case StmtKind::VarDecl:
      case StmtKind::ExprStmt:
        appendSimpleStmt(out, stmt, cursor);
        out += '\n';
        return;
      case StmtKind::If: {
        const auto &if_stmt = static_cast<const IfStmt &>(stmt);
        out += "if (";
        appendExpr(out, *if_stmt.cond, &cursor);
        out += ")\n";
        appendStmt(out, *if_stmt.thenStmt, indent);
        if (if_stmt.elseStmt) {
            appendPad(out, indent);
            out += "else\n";
            appendStmt(out, *if_stmt.elseStmt, indent);
        }
        return;
      }
      case StmtKind::While: {
        const auto &while_stmt = static_cast<const WhileStmt &>(stmt);
        out += "while (";
        appendExpr(out, *while_stmt.cond, &cursor);
        out += ")\n";
        appendStmt(out, *while_stmt.body, indent);
        return;
      }
      case StmtKind::For: {
        const auto &for_stmt = static_cast<const ForStmt &>(stmt);
        out += "for (";
        // Lowering charges the init and the condition to the init
        // statement, and the step to the for itself.
        if (for_stmt.init) {
            cursor.anchor = for_stmt.init->loc().line;
            appendSimpleStmt(out, *for_stmt.init, cursor);
        } else {
            out += ';';
        }
        out += ' ';
        if (for_stmt.cond)
            appendExpr(out, *for_stmt.cond, &cursor);
        out += "; ";
        cursor.anchor = stmt.loc().line;
        if (for_stmt.step)
            appendExpr(out, *for_stmt.step, &cursor);
        out += ")\n";
        appendStmt(out, *for_stmt.body, indent);
        return;
      }
      case StmtKind::Return: {
        const auto &ret = static_cast<const ReturnStmt &>(stmt);
        out += "return";
        if (ret.value) {
            out += ' ';
            appendExpr(out, *ret.value, &cursor);
        }
        out += ";\n";
        return;
      }
      case StmtKind::Break:
        out += "break;\n";
        return;
      case StmtKind::Continue:
        out += "continue;\n";
        return;
    }
    out += "?;\n";
}

void
appendFunction(std::string &out, const FunctionDecl &func)
{
    out += func.returnType->str();
    out += ' ';
    out += func.name;
    out += '(';
    for (std::size_t i = 0; i < func.params.size(); i++) {
        if (i)
            out += ", ";
        out += func.params[i].type->str();
        out += ' ';
        out += func.params[i].name;
    }
    out += ")\n";
    if (func.body)
        appendStmt(out, *func.body, 0);
}

} // namespace

std::string
printExpr(const Expr &expr)
{
    std::string out;
    appendExpr(out, expr, nullptr);
    return out;
}

std::string
printStmt(const Stmt &stmt, int indent)
{
    std::string out;
    appendStmt(out, stmt, indent);
    return out;
}

std::string
printFunction(const FunctionDecl &func)
{
    std::string out;
    appendFunction(out, func);
    return out;
}

std::string
printProgram(const Program &program)
{
    std::string out;
    for (const StructInfo *info : program.types->allStructs()) {
        out += "struct ";
        out += info->name;
        out += " {\n";
        for (const auto &field : info->fields) {
            out += "    ";
            appendDeclarator(out, *field.type, field.name);
            out += ";\n";
        }
        out += "};\n";
    }
    for (const auto &global : program.globals) {
        appendDeclarator(out, *global->type, global->name);
        if (global->init) {
            out += " = ";
            appendExpr(out, *global->init, nullptr);
        }
        out += ";\n";
    }
    if (!program.globals.empty())
        out += '\n';
    for (const auto &func : program.functions) {
        appendFunction(out, *func);
        out += '\n';
    }
    return out;
}

} // namespace compdiff::minic
