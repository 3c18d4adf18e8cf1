#include "minic/parser.hh"

#include <algorithm>

#include "minic/lexer.hh"
#include "minic/sema.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "support/logging.hh"

namespace compdiff::minic
{

using support::CompileError;

namespace
{

/** Restores one of the parser's nesting levels when a construct
 *  ends. */
class DepthScope
{
  public:
    explicit DepthScope(int &depth) : depth_(depth), saved_(depth) {}
    ~DepthScope() { depth_ = saved_; }
    /** The level the construct began at. */
    int outer() const { return saved_; }
    DepthScope(const DepthScope &) = delete;
    DepthScope &operator=(const DepthScope &) = delete;

  private:
    int &depth_;
    const int saved_;
};

} // namespace

Parser::Parser(std::string_view source, support::DiagnosticEngine &diags)
    : diags_(diags)
{
    Lexer lexer(source, diags_);
    tokens_ = lexer.lexAll();
    if (diags_.hasErrors())
        throw CompileError(diags_.str());
}

const Token &
Parser::peek(std::size_t ahead) const
{
    const std::size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
}

const Token &
Parser::advance()
{
    const Token &tok = peek();
    if (pos_ + 1 < tokens_.size())
        pos_++;
    return tok;
}

bool
Parser::accept(TokKind kind)
{
    if (!check(kind))
        return false;
    advance();
    return true;
}

const Token &
Parser::expect(TokKind kind, const char *context)
{
    if (!check(kind)) {
        errorHere(std::string("expected ") + tokKindName(kind) +
                  " in " + context + ", got " +
                  tokKindName(peek().kind));
    }
    return advance();
}

void
Parser::errorHere(const std::string &message)
{
    diags_.error(peek().loc, message);
    throw CompileError(diags_.str());
}

void
Parser::descend(int &level)
{
    if (++level > kMaxNestingDepth) {
        errorHere("nesting deeper than " +
                  std::to_string(kMaxNestingDepth) + " levels");
    }
}

void
Parser::built(int base, int height)
{
    height_ = height;
    if (base + height > kMaxNestingDepth) {
        errorHere("nesting deeper than " +
                  std::to_string(kMaxNestingDepth) + " levels");
    }
}

bool
Parser::atTypeStart() const
{
    switch (peek().kind) {
      case TokKind::KwVoid:
      case TokKind::KwChar:
      case TokKind::KwInt:
      case TokKind::KwUInt:
      case TokKind::KwLong:
      case TokKind::KwULong:
      case TokKind::KwDouble:
      case TokKind::KwStruct:
        return true;
      default:
        return false;
    }
}

const Type *
Parser::parseType()
{
    TypeContext &types = *program_->types;
    const Type *base = nullptr;
    switch (peek().kind) {
      case TokKind::KwVoid: base = types.voidType(); break;
      case TokKind::KwChar: base = types.charType(); break;
      case TokKind::KwInt: base = types.intType(); break;
      case TokKind::KwUInt: base = types.uintType(); break;
      case TokKind::KwLong: base = types.longType(); break;
      case TokKind::KwULong: base = types.ulongType(); break;
      case TokKind::KwDouble: base = types.doubleType(); break;
      case TokKind::KwStruct: {
        advance();
        const Token &name = expect(TokKind::Identifier, "struct type");
        base = types.findStruct(name.text);
        if (!base)
            errorHere("unknown struct '" + name.text + "'");
        goto stars;
      }
      default:
        errorHere("expected a type");
    }
    advance();
  stars:
    while (accept(TokKind::Star))
        base = types.pointerTo(base);
    return base;
}

void
Parser::parseStructDecl()
{
    // Caller consumed nothing; we are at 'struct'.
    advance(); // struct
    const Token &name = expect(TokKind::Identifier, "struct decl");
    expect(TokKind::LBrace, "struct decl");

    TypeContext &types = *program_->types;
    types.declareStruct(name.text);
    StructInfo *info = types.structInfo(name.text);

    while (!accept(TokKind::RBrace)) {
        const Type *field_type = parseType();
        const Token &field_name =
            expect(TokKind::Identifier, "struct field");
        if (accept(TokKind::LBracket)) {
            const Token &len =
                expect(TokKind::IntLiteral, "array field");
            expect(TokKind::RBracket, "array field");
            field_type = types.arrayOf(
                field_type, static_cast<std::uint64_t>(len.intValue));
        }
        expect(TokKind::Semicolon, "struct field");
        info->fields.push_back({field_name.text, field_type, 0});
    }
    expect(TokKind::Semicolon, "struct decl");
    TypeContext::layoutStruct(*info);
}

std::unique_ptr<Program>
Parser::parseProgram()
{
    program_ = std::make_unique<Program>();
    while (!check(TokKind::EndOfFile))
        parseTopLevel();
    return std::move(program_);
}

void
Parser::parseTopLevel()
{
    if (check(TokKind::KwStruct) && peek(1).is(TokKind::Identifier) &&
        peek(2).is(TokKind::LBrace)) {
        parseStructDecl();
        return;
    }

    const Type *type = parseType();
    Token name_tok = expect(TokKind::Identifier, "top-level decl");

    if (check(TokKind::LParen)) {
        program_->functions.push_back(
            parseFunctionRest(type, std::move(name_tok)));
    } else {
        parseGlobalRest(type, std::move(name_tok));
    }
}

std::unique_ptr<FunctionDecl>
Parser::parseFunctionRest(const Type *ret, Token name_tok)
{
    auto func = std::make_unique<FunctionDecl>();
    func->returnType = ret;
    func->name = name_tok.text;
    func->loc = name_tok.loc;

    expect(TokKind::LParen, "function decl");
    if (!check(TokKind::RParen)) {
        do {
            if (check(TokKind::KwVoid) && peek(1).is(TokKind::RParen)) {
                advance();
                break;
            }
            ParamDecl param;
            param.loc = peek().loc;
            param.type = parseType();
            param.name =
                expect(TokKind::Identifier, "parameter").text;
            func->params.push_back(std::move(param));
        } while (accept(TokKind::Comma));
    }
    expect(TokKind::RParen, "function decl");
    func->body = parseBlock();
    return func;
}

void
Parser::parseGlobalRest(const Type *type, Token name_tok)
{
    auto global = std::make_unique<GlobalDecl>();
    global->name = name_tok.text;
    global->loc = name_tok.loc;

    if (accept(TokKind::LBracket)) {
        const Token &len = expect(TokKind::IntLiteral, "global array");
        expect(TokKind::RBracket, "global array");
        type = program_->types->arrayOf(
            type, static_cast<std::uint64_t>(len.intValue));
    }
    global->type = type;

    if (accept(TokKind::Assign))
        global->init = parseAssignment();
    expect(TokKind::Semicolon, "global decl");
    program_->globals.push_back(std::move(global));
}

std::unique_ptr<BlockStmt>
Parser::parseBlock()
{
    const Token &open = expect(TokKind::LBrace, "block");
    auto block = std::make_unique<BlockStmt>(open.loc);
    while (!accept(TokKind::RBrace)) {
        if (check(TokKind::EndOfFile))
            errorHere("unterminated block");
        block->body.push_back(parseStatement());
    }
    return block;
}

StmtPtr
Parser::parseVarDecl()
{
    const auto loc = peek().loc;
    const Type *type = parseType();
    const Token &name = expect(TokKind::Identifier, "declaration");

    const Type *full = type;
    if (accept(TokKind::LBracket)) {
        const Token &len = expect(TokKind::IntLiteral, "array decl");
        expect(TokKind::RBracket, "array decl");
        full = program_->types->arrayOf(
            type, static_cast<std::uint64_t>(len.intValue));
    }

    ExprPtr init;
    if (accept(TokKind::Assign))
        init = parseAssignment();
    expect(TokKind::Semicolon, "declaration");
    return std::make_unique<VarDeclStmt>(loc, full, name.text,
                                         std::move(init));
}

StmtPtr
Parser::parseStatement()
{
    const auto loc = peek().loc;
    const DepthScope scope(depth_);
    const DepthScope group_scope(groups_);
    descend(depth_);
    descend(groups_);

    if (check(TokKind::LBrace))
        return parseBlock();

    if (atTypeStart())
        return parseVarDecl();

    if (accept(TokKind::KwIf)) {
        expect(TokKind::LParen, "if");
        auto cond = parseExpr();
        expect(TokKind::RParen, "if");
        auto then_stmt = parseStatement();
        StmtPtr else_stmt;
        if (accept(TokKind::KwElse))
            else_stmt = parseStatement();
        return std::make_unique<IfStmt>(loc, std::move(cond),
                                        std::move(then_stmt),
                                        std::move(else_stmt));
    }

    if (accept(TokKind::KwWhile)) {
        expect(TokKind::LParen, "while");
        auto cond = parseExpr();
        expect(TokKind::RParen, "while");
        auto body = parseStatement();
        return std::make_unique<WhileStmt>(loc, std::move(cond),
                                           std::move(body));
    }

    if (accept(TokKind::KwFor)) {
        expect(TokKind::LParen, "for");
        StmtPtr init;
        if (!accept(TokKind::Semicolon)) {
            if (atTypeStart()) {
                init = parseVarDecl(); // consumes ';'
            } else {
                auto e = parseExpr();
                init = std::make_unique<ExprStmt>(loc, std::move(e));
                expect(TokKind::Semicolon, "for init");
            }
        }
        ExprPtr cond;
        if (!check(TokKind::Semicolon))
            cond = parseExpr();
        expect(TokKind::Semicolon, "for condition");
        ExprPtr step;
        if (!check(TokKind::RParen))
            step = parseExpr();
        expect(TokKind::RParen, "for");
        auto body = parseStatement();
        return std::make_unique<ForStmt>(loc, std::move(init),
                                         std::move(cond),
                                         std::move(step),
                                         std::move(body));
    }

    if (accept(TokKind::KwReturn)) {
        ExprPtr value;
        if (!check(TokKind::Semicolon))
            value = parseExpr();
        expect(TokKind::Semicolon, "return");
        return std::make_unique<ReturnStmt>(loc, std::move(value));
    }

    if (accept(TokKind::KwBreak)) {
        expect(TokKind::Semicolon, "break");
        return std::make_unique<BreakStmt>(loc);
    }

    if (accept(TokKind::KwContinue)) {
        expect(TokKind::Semicolon, "continue");
        return std::make_unique<ContinueStmt>(loc);
    }

    auto expr = parseExpr();
    expect(TokKind::Semicolon, "expression statement");
    return std::make_unique<ExprStmt>(loc, std::move(expr));
}

ExprPtr
Parser::parseExpr()
{
    return parseAssignment();
}

namespace
{

std::optional<BinaryOp>
compoundOpFor(TokKind kind)
{
    switch (kind) {
      case TokKind::PlusAssign: return BinaryOp::Add;
      case TokKind::MinusAssign: return BinaryOp::Sub;
      case TokKind::StarAssign: return BinaryOp::Mul;
      case TokKind::SlashAssign: return BinaryOp::Div;
      case TokKind::PercentAssign: return BinaryOp::Rem;
      case TokKind::AmpAssign: return BinaryOp::BitAnd;
      case TokKind::PipeAssign: return BinaryOp::BitOr;
      case TokKind::CaretAssign: return BinaryOp::BitXor;
      case TokKind::ShlAssign: return BinaryOp::Shl;
      case TokKind::ShrAssign: return BinaryOp::Shr;
      default: return std::nullopt;
    }
}

/** Binding power for the binary-operator precedence climber. */
int
precedenceOf(TokKind kind)
{
    switch (kind) {
      case TokKind::PipePipe: return 1;
      case TokKind::AmpAmp: return 2;
      case TokKind::Pipe: return 3;
      case TokKind::Caret: return 4;
      case TokKind::Amp: return 5;
      case TokKind::EqEq:
      case TokKind::BangEq: return 6;
      case TokKind::Less:
      case TokKind::LessEq:
      case TokKind::Greater:
      case TokKind::GreaterEq: return 7;
      case TokKind::Shl:
      case TokKind::Shr: return 8;
      case TokKind::Plus:
      case TokKind::Minus: return 9;
      case TokKind::Star:
      case TokKind::Slash:
      case TokKind::Percent: return 10;
      default: return 0;
    }
}

BinaryOp
binaryOpFor(TokKind kind)
{
    switch (kind) {
      case TokKind::PipePipe: return BinaryOp::LogOr;
      case TokKind::AmpAmp: return BinaryOp::LogAnd;
      case TokKind::Pipe: return BinaryOp::BitOr;
      case TokKind::Caret: return BinaryOp::BitXor;
      case TokKind::Amp: return BinaryOp::BitAnd;
      case TokKind::EqEq: return BinaryOp::Eq;
      case TokKind::BangEq: return BinaryOp::Ne;
      case TokKind::Less: return BinaryOp::Lt;
      case TokKind::LessEq: return BinaryOp::Le;
      case TokKind::Greater: return BinaryOp::Gt;
      case TokKind::GreaterEq: return BinaryOp::Ge;
      case TokKind::Shl: return BinaryOp::Shl;
      case TokKind::Shr: return BinaryOp::Shr;
      case TokKind::Plus: return BinaryOp::Add;
      case TokKind::Minus: return BinaryOp::Sub;
      case TokKind::Star: return BinaryOp::Mul;
      case TokKind::Slash: return BinaryOp::Div;
      case TokKind::Percent: return BinaryOp::Rem;
      default:
        support::panic("binaryOpFor: not a binary operator token");
    }
}

} // namespace

ExprPtr
Parser::parseAssignment()
{
    const DepthScope scope(depth_);
    auto lhs = parseTernary();
    const int lhs_height = height_;

    const auto loc = peek().loc;
    std::optional<BinaryOp> op;
    if (!accept(TokKind::Assign)) {
        op = compoundOpFor(peek().kind);
        if (!op)
            return lhs;
        advance();
    }
    descend(depth_);
    auto rhs = parseAssignment();
    built(scope.outer(), 1 + std::max(lhs_height, height_));
    return std::make_unique<AssignExpr>(loc, std::move(lhs),
                                        std::move(rhs), op);
}

ExprPtr
Parser::parseTernary()
{
    auto cond = parseBinary(1);
    if (!check(TokKind::Question))
        return cond;
    int height = height_;
    const auto loc = advance().loc;
    const DepthScope scope(depth_);
    descend(depth_);
    auto then_expr = parseExpr();
    height = std::max(height, height_);
    expect(TokKind::Colon, "ternary");
    auto else_expr = parseTernary();
    built(scope.outer(), 1 + std::max(height, height_));
    return std::make_unique<CondExpr>(loc, std::move(cond),
                                      std::move(then_expr),
                                      std::move(else_expr));
}

ExprPtr
Parser::parseBinary(int min_prec)
{
    // Each operator of a chain nests the chain so far one level
    // deeper (a left-deep tree).
    const DepthScope scope(depth_);
    auto lhs = parseUnary();
    int height = height_;
    for (;;) {
        const int prec = precedenceOf(peek().kind);
        if (prec == 0 || prec < min_prec) {
            height_ = height;
            return lhs;
        }
        const Token &op_tok = advance();
        descend(depth_);
        auto rhs = parseBinary(prec + 1);
        height = 1 + std::max(height, height_);
        built(scope.outer(), height);
        lhs = std::make_unique<BinaryExpr>(op_tok.loc,
                                           binaryOpFor(op_tok.kind),
                                           std::move(lhs),
                                           std::move(rhs));
    }
}

ExprPtr
Parser::parseUnary()
{
    const auto loc = peek().loc;
    const DepthScope scope(depth_);
    const auto unary = [&](UnaryOp op) -> ExprPtr {
        advance();
        descend(depth_);
        auto operand = parseUnary();
        built(scope.outer(), 1 + height_);
        return std::make_unique<UnaryExpr>(loc, op, std::move(operand));
    };
    switch (peek().kind) {
      case TokKind::Minus: return unary(UnaryOp::Neg);
      case TokKind::Tilde: return unary(UnaryOp::BitNot);
      case TokKind::Bang: return unary(UnaryOp::LogNot);
      case TokKind::Star: return unary(UnaryOp::Deref);
      case TokKind::Amp: return unary(UnaryOp::AddrOf);
      case TokKind::Plus:
        advance();
        descend(depth_);
        return parseUnary();
      case TokKind::KwSizeof: {
        advance();
        expect(TokKind::LParen, "sizeof");
        const Type *queried = parseType();
        expect(TokKind::RParen, "sizeof");
        height_ = 0;
        return std::make_unique<SizeOfExpr>(loc, queried);
      }
      case TokKind::LParen:
        // Cast if a type follows; otherwise grouped expression.
        if (pos_ + 1 < tokens_.size()) {
            switch (peek(1).kind) {
              case TokKind::KwVoid:
              case TokKind::KwChar:
              case TokKind::KwInt:
              case TokKind::KwUInt:
              case TokKind::KwLong:
              case TokKind::KwULong:
              case TokKind::KwDouble:
              case TokKind::KwStruct: {
                advance(); // (
                const Type *target = parseType();
                expect(TokKind::RParen, "cast");
                descend(depth_);
                auto operand = parseUnary();
                built(scope.outer(), 1 + height_);
                return std::make_unique<CastExpr>(loc, target,
                                                  std::move(operand));
              }
              default:
                break;
            }
        }
        return parsePostfix();
      default:
        return parsePostfix();
    }
}

ExprPtr
Parser::parsePostfix()
{
    const DepthScope scope(depth_);
    auto expr = parsePrimary();
    for (;;) {
        const int base_height = height_;
        const auto loc = peek().loc;
        if (accept(TokKind::LBracket)) {
            descend(depth_);
            auto index = parseExpr();
            expect(TokKind::RBracket, "subscript");
            built(scope.outer(), 1 + std::max(base_height, height_));
            expr = std::make_unique<IndexExpr>(loc, std::move(expr),
                                               std::move(index));
        } else if (check(TokKind::Dot) || check(TokKind::Arrow)) {
            const bool arrow = advance().is(TokKind::Arrow);
            descend(depth_);
            const Token &field =
                expect(TokKind::Identifier, "member access");
            built(scope.outer(), 1 + base_height);
            expr = std::make_unique<MemberExpr>(loc, std::move(expr),
                                                field.text, arrow);
        } else {
            return expr;
        }
    }
}

ExprPtr
Parser::parsePrimary()
{
    const Token &tok = peek();
    const DepthScope scope(depth_);
    height_ = 0;
    switch (tok.kind) {
      case TokKind::IntLiteral: {
        advance();
        auto lit = std::make_unique<IntLitExpr>(tok.loc, tok.intValue);
        lit->isLong = tok.isLong;
        lit->isUnsigned = tok.isUnsigned;
        return lit;
      }
      case TokKind::FloatLiteral:
        advance();
        return std::make_unique<FloatLitExpr>(tok.loc, tok.floatValue);
      case TokKind::CharLiteral:
        advance();
        return std::make_unique<IntLitExpr>(tok.loc, tok.intValue);
      case TokKind::StringLiteral:
        advance();
        return std::make_unique<StrLitExpr>(tok.loc, tok.text);
      case TokKind::Identifier: {
        advance();
        if (check(TokKind::LParen)) {
            advance();
            descend(depth_);
            std::vector<ExprPtr> args;
            int height = 0;
            if (!check(TokKind::RParen)) {
                do {
                    args.push_back(parseAssignment());
                    height = std::max(height, height_);
                } while (accept(TokKind::Comma));
            }
            expect(TokKind::RParen, "call");
            built(scope.outer(), 1 + height);
            return std::make_unique<CallExpr>(tok.loc, tok.text,
                                              std::move(args));
        }
        return std::make_unique<VarRefExpr>(tok.loc, tok.text);
      }
      case TokKind::LParen: {
        advance();
        const DepthScope group_scope(groups_);
        descend(groups_);
        auto inner = parseExpr();
        expect(TokKind::RParen, "parenthesized expression");
        return inner;
      }
      default:
        errorHere(std::string("unexpected ") +
                  tokKindName(tok.kind) + " in expression");
    }
}

std::unique_ptr<Program>
parseAndCheck(std::string_view source)
{
    support::DiagnosticEngine diags;
    std::unique_ptr<Program> program;
    {
        obs::Span span("minic.parse");
        Parser parser(source, diags);
        program = parser.parseProgram();
        obs::counter("minic.parses").add();
        obs::counter("minic.source_bytes").add(source.size());
    }
    obs::Span span("minic.sema");
    Sema sema(diags);
    if (!sema.analyze(*program))
        throw CompileError(diags.str());
    return program;
}

} // namespace compdiff::minic
