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
 * -fbracket-depth is the same 256). Every statement, parenthesized
 * group, call, subscript, unary operator or cast, `?:` and assignment
 * adds a level around what it contains, and so does each operator of
 * a binary or postfix chain (those build left-deep trees). Past the
 * bound the parser throws support::CompileError, so every later
 * recursive walk of the AST (sema, the passes, lowering, the printer,
 * the reference interpreter) runs within a bounded stack.
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

    /** Enter one more level of nesting; a CompileError past
     *  kMaxNestingDepth. Callers restore depth_ when the construct
     *  ends (a DepthScope does). */
    void descend();

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
    int depth_ = 0;
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
