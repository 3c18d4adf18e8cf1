#pragma once

/**
 * @file
 * Recursive-descent parser for MiniC.
 */

#include <memory>
#include <string_view>
#include <vector>

#include "minic/ast.hh"
#include "minic/token.hh"
#include "support/diagnostics.hh"

namespace compdiff::minic
{

/**
 * How deep the parser lets a program nest (clang's default
 * -fbracket-depth is the same 256). A statement is one level inside
 * the one that contains it, and every call, subscript, member access,
 * unary operator or cast, `?:`, assignment and binary operator is one
 * level around its operands. The deepest point of every statement
 * must lie within the bound, counted on the tree the parser builds,
 * so every later recursive walk of the AST (sema, the passes,
 * lowering, the printer, the reference interpreter) runs within a
 * bounded stack. A parenthesized group builds no node, so groups
 * count on their own: a statement's level plus the groups open inside
 * it stays within the same bound. The printer parenthesizes at most
 * one node per group, so the text it prints parses back. Past the
 * bound the parser throws support::CompileError.
 */
inline constexpr int kMaxNestingDepth = 256;

/**
 * Parses a MiniC source buffer into a Program.
 *
 * The parser stops at the first syntax error: it records the error in
 * the diagnostic engine and throws support::CompileError. All sources
 * in this repository are machine-generated, so recovery quality is
 * traded for simplicity.
 */
class Parser
{
  public:
    Parser(std::string_view source, support::DiagnosticEngine &diags);

    /**
     * Parse the whole buffer.
     *
     * @return The parsed program (types populated, not yet
     *         semantically analyzed).
     * @throws support::CompileError on any syntax error.
     */
    std::unique_ptr<Program> parseProgram();

  private:
    const Token &peek(std::size_t ahead = 0) const;
    const Token &advance();
    bool check(TokKind kind) const { return peek().is(kind); }
    bool accept(TokKind kind);
    const Token &expect(TokKind kind, const char *context);
    [[noreturn]] void errorHere(const std::string &message);

    /** Enter one more level of `level` (depth_ or groups_); a
     *  CompileError past kMaxNestingDepth. Callers restore it when
     *  the construct ends (a DepthScope does). */
    void descend(int &level);

    /** The expression just built stands `base` levels deep and is
     *  `height` levels tall; a CompileError when its deepest operand
     *  lies past kMaxNestingDepth. */
    void built(int base, int height);

    /** True if the upcoming tokens start a type. */
    bool atTypeStart() const;

    /** Parse a type: base type plus pointer stars. */
    const Type *parseType();

    void parseStructDecl();
    void parseTopLevel();
    std::unique_ptr<FunctionDecl>
    parseFunctionRest(const Type *ret, Token name_tok);
    void parseGlobalRest(const Type *type, Token name_tok);

    StmtPtr parseStatement();
    std::unique_ptr<BlockStmt> parseBlock();
    StmtPtr parseVarDecl();

    ExprPtr parseExpr();
    ExprPtr parseAssignment();
    ExprPtr parseTernary();
    ExprPtr parseBinary(int min_prec);
    ExprPtr parseUnary();
    ExprPtr parsePostfix();
    ExprPtr parsePrimary();

    std::unique_ptr<Program> program_;
    std::vector<Token> tokens_;
    std::size_t pos_ = 0;
    /** Levels of statements and operators open at the current token:
     *  bounds the parser's own recursion. An operand parsed before
     *  its operator (the left one of a binary or postfix chain, a
     *  `?:` condition, an assignment target) is counted short here,
     *  and heights catch it. */
    int depth_ = 0;
    /** Statements plus the parenthesized groups open at the current
     *  token. */
    int groups_ = 0;
    /** Height of the expression the last expression parser returned:
     *  0 for a literal, a name or a sizeof, one more than its tallest
     *  operand for any other node. */
    int height_ = 0;
    support::DiagnosticEngine &diags_;
};

/**
 * Convenience helper: lex + parse + semantic analysis in one call.
 *
 * @param source MiniC source text.
 * @return Fully analyzed program.
 * @throws support::CompileError on any frontend error, with the
 *         diagnostics rendered into the exception message.
 */
std::unique_ptr<Program> parseAndCheck(std::string_view source);

} // namespace compdiff::minic
