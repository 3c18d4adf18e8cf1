/**
 * @file
 * Unit tests for the MiniC frontend: lexer, parser, types, sema.
 */

#include <gtest/gtest.h>

#include "minic/lexer.hh"
#include "minic/parser.hh"
#include "minic/printer.hh"
#include "minic/sema.hh"
#include "support/diagnostics.hh"

namespace
{

using namespace compdiff::minic;
using compdiff::support::CompileError;
using compdiff::support::DiagnosticEngine;

std::vector<Token>
lex(std::string_view source)
{
    DiagnosticEngine diags;
    Lexer lexer(source, diags);
    auto tokens = lexer.lexAll();
    EXPECT_FALSE(diags.hasErrors()) << diags.str();
    return tokens;
}

TEST(Lexer, BasicTokens)
{
    const auto tokens = lex("int x = 42; // comment\nx += 0x1f;");
    ASSERT_GE(tokens.size(), 9u);
    EXPECT_EQ(tokens[0].kind, TokKind::KwInt);
    EXPECT_EQ(tokens[1].kind, TokKind::Identifier);
    EXPECT_EQ(tokens[1].text, "x");
    EXPECT_EQ(tokens[2].kind, TokKind::Assign);
    EXPECT_EQ(tokens[3].intValue, 42);
    EXPECT_EQ(tokens[6].kind, TokKind::PlusAssign);
    EXPECT_EQ(tokens[7].intValue, 31);
}

TEST(Lexer, SuffixesAndLiterals)
{
    const auto tokens = lex("1L 2U 3UL 1.5 'a' '\\n' \"hi\\t\"");
    EXPECT_TRUE(tokens[0].isLong);
    EXPECT_TRUE(tokens[1].isUnsigned);
    EXPECT_TRUE(tokens[2].isLong && tokens[2].isUnsigned);
    EXPECT_DOUBLE_EQ(tokens[3].floatValue, 1.5);
    EXPECT_EQ(tokens[4].intValue, 'a');
    EXPECT_EQ(tokens[5].intValue, '\n');
    EXPECT_EQ(tokens[6].text, "hi\t");
}

TEST(Lexer, OperatorsDisambiguated)
{
    const auto tokens = lex("<< <<= < <= -> - -= >> >>=");
    EXPECT_EQ(tokens[0].kind, TokKind::Shl);
    EXPECT_EQ(tokens[1].kind, TokKind::ShlAssign);
    EXPECT_EQ(tokens[2].kind, TokKind::Less);
    EXPECT_EQ(tokens[3].kind, TokKind::LessEq);
    EXPECT_EQ(tokens[4].kind, TokKind::Arrow);
    EXPECT_EQ(tokens[5].kind, TokKind::Minus);
    EXPECT_EQ(tokens[6].kind, TokKind::MinusAssign);
    EXPECT_EQ(tokens[7].kind, TokKind::Shr);
    EXPECT_EQ(tokens[8].kind, TokKind::ShrAssign);
}

TEST(Lexer, TracksLines)
{
    const auto tokens = lex("int\nx\n;");
    EXPECT_EQ(tokens[0].loc.line, 1u);
    EXPECT_EQ(tokens[1].loc.line, 2u);
    EXPECT_EQ(tokens[2].loc.line, 3u);
}

TEST(Parser, FunctionAndGlobal)
{
    auto program = parseAndCheck(R"(
        int g = 7;
        int add(int a, int b) { return a + b; }
        int main() { return add(g, 2); }
    )");
    ASSERT_EQ(program->functions.size(), 2u);
    ASSERT_EQ(program->globals.size(), 1u);
    EXPECT_EQ(program->functions[0]->name, "add");
    EXPECT_EQ(program->functions[0]->params.size(), 2u);
    EXPECT_EQ(program->globals[0]->globalId, 0);
}

TEST(Parser, Structs)
{
    auto program = parseAndCheck(R"(
        struct point { int x; int y; char tag[8]; };
        int main() {
            struct point p;
            p.x = 1;
            p.y = 2;
            return p.x + p.y;
        }
    )");
    const Type *point = program->types->findStruct("point");
    ASSERT_NE(point, nullptr);
    EXPECT_EQ(point->size(), 16u);
    EXPECT_EQ(point->structInfo()->field("y")->offset, 4u);
    EXPECT_EQ(point->structInfo()->field("tag")->offset, 8u);
}

TEST(Parser, PrecedenceShape)
{
    auto program = parseAndCheck(
        "int main() { return 1 + 2 * 3 < 7 && 1; }");
    const auto &ret = static_cast<const ReturnStmt &>(
        *program->functions[0]->body->body[0]);
    const auto &top = static_cast<const BinaryExpr &>(*ret.value);
    EXPECT_EQ(top.op, BinaryOp::LogAnd);
    const auto &cmp = static_cast<const BinaryExpr &>(*top.lhs);
    EXPECT_EQ(cmp.op, BinaryOp::Lt);
}

TEST(Parser, SyntaxErrorThrows)
{
    EXPECT_THROW(parseAndCheck("int main( { return 0; }"),
                 CompileError);
    EXPECT_THROW(parseAndCheck("int main() { return 0 }"),
                 CompileError);
}

TEST(Parser, CompileErrorIsOneLinePerDiagnostic)
{
    try {
        parseAndCheck("int main() {\n    return (;\n}\n");
        ADD_FAILURE() << "parsed";
    } catch (const CompileError &error) {
        EXPECT_STREQ(error.what(),
                     "error at 2:13: unexpected ';' in expression");
    }
}

// Three shapes whose deepest point nests exactly `depth` levels, all
// on line 2: the return statement is one level, and each
// parenthesized group, block or operator of a chain adds one.
std::string
nestedParens(int depth)
{
    const auto groups = static_cast<std::size_t>(depth - 1);
    return "int main() {\n    return " + std::string(groups, '(') +
           "1" + std::string(groups, ')') + ";\n}\n";
}

std::string
nestedBlocks(int depth)
{
    const auto blocks = static_cast<std::size_t>(depth);
    return "int main() {\n    " + std::string(blocks, '{') +
           std::string(blocks, '}') + "\n    return 0;\n}\n";
}

std::string
flatSum(int depth)
{
    std::string sum = "1";
    for (int term = 1; term < depth; term++)
        sum += " + 1";
    return "int main() {\n    return " + sum + ";\n}\n";
}

TEST(Parser, NestingPastTheBoundIsACompileError)
{
    for (const auto shape : {nestedParens, nestedBlocks, flatSum}) {
        EXPECT_NO_THROW(parseAndCheck(shape(kMaxNestingDepth)));
        for (const int depth : {kMaxNestingDepth + 1, 20'000}) {
            SCOPED_TRACE(depth);
            try {
                parseAndCheck(shape(depth));
                ADD_FAILURE() << "parsed " << shape(3);
            } catch (const CompileError &error) {
                EXPECT_NE(std::string(error.what())
                              .find("error at 2:"),
                          std::string::npos)
                    << error.what();
                EXPECT_NE(std::string(error.what())
                              .find("nesting deeper than 256 levels"),
                          std::string::npos)
                    << error.what();
            }
        }
    }
}

std::string
repeated(const std::string &text, int count)
{
    std::string out;
    for (int i = 0; i < count; i++)
        out += text;
    return out;
}

// A sum of `inside` + 1 terms in a group, which heads `outside` more.
std::string
groupedSum(int inside, int outside)
{
    return "int main() {\n    return (1" + repeated(" + 1", inside) +
           ")" + repeated(" + 1", outside) + ";\n}\n";
}

// The printer parenthesizes every binary operator, so printed text
// opens a group per operator where the source opened none. What
// parses at the bound still parses once printed.
TEST(Parser, PrintedTextAtTheBoundParses)
{
    const std::string ladder =
        "int main() {\n    int a = 1;\n    " + repeated("{", 236) +
        "a = a || a && a | a ^ a & a == a < a << a + a * a;" +
        repeated("}", 236) + "\n    return a;\n}\n";
    for (const std::string &source :
         {flatSum(kMaxNestingDepth), ladder, groupedSum(127, 128)}) {
        const std::string printed =
            printProgram(*parseAndCheck(source));
        std::unique_ptr<Program> reparsed;
        ASSERT_NO_THROW(reparsed = parseAndCheck(printed)) << printed;
        EXPECT_EQ(printProgram(*reparsed), printed);
    }
}

// The bound counts the tree the parser builds, so a group does not
// restart it: a chain inside a group and the chain it heads add up.
TEST(Parser, GroupsDoNotRestartTheBound)
{
    EXPECT_NO_THROW(parseAndCheck(groupedSum(127, 128)));
    EXPECT_THROW(parseAndCheck(groupedSum(128, 128)), CompileError);
    EXPECT_THROW(parseAndCheck(groupedSum(128, 20'000)), CompileError);
}

TEST(Sema, TypesExpressions)
{
    auto program = parseAndCheck(R"(
        int main() {
            int a = 1;
            long b = 2L;
            char c = 'x';
            double d = 1.5;
            uint u = 3U;
            return (int)(a + b + c + u + (long)d);
        }
    )");
    EXPECT_EQ(program->functions[0]->locals.size(), 5u);
}

TEST(Sema, RejectsErrors)
{
    // Undeclared identifier.
    EXPECT_THROW(parseAndCheck("int main() { return zz; }"),
                 CompileError);
    // Assignment to rvalue.
    EXPECT_THROW(parseAndCheck("int main() { 1 = 2; return 0; }"),
                 CompileError);
    // Break outside loop.
    EXPECT_THROW(parseAndCheck("int main() { break; return 0; }"),
                 CompileError);
    // Bad member.
    EXPECT_THROW(parseAndCheck(R"(
        struct s { int a; };
        int main() { struct s v; return v.b; }
    )"),
                 CompileError);
    // Pointer/integer comparison without a null literal.
    EXPECT_THROW(parseAndCheck(R"(
        int main(){ int x; int *p; if (p < 3) { x = 1; } return 0; }
    )"),
                 CompileError);
}

TEST(Sema, RejectsAggregateByValue)
{
    // Struct parameters, struct returns, and struct assignment are
    // all pointer-only territory in MiniC.
    EXPECT_THROW(parseAndCheck(R"(
        struct s { int a; };
        int use(struct s v) { return v.a; }
        int main() { return 0; }
    )"),
                 CompileError);
    EXPECT_THROW(parseAndCheck(R"(
        struct s { int a; };
        struct s make() { struct s v; return v; }
        int main() { return 0; }
    )"),
                 CompileError);
    EXPECT_THROW(parseAndCheck(R"(
        struct s { int a; };
        int main() {
            struct s x;
            struct s y;
            x = y;
            return 0;
        }
    )"),
                 CompileError);
    // Pointer-based struct use stays fine.
    EXPECT_NO_THROW(parseAndCheck(R"(
        struct s { int a; };
        int use(struct s *v) { return v->a; }
        int main() { struct s x; x.a = 3; return use(&x); }
    )"));
}

TEST(Sema, ArityMismatchIsAWarningNotError)
{
    // Pre-prototype-C semantics: required for CWE-685 tests.
    auto program = parseAndCheck(R"(
        int two(int a, int b) { return a + b; }
        int main() { return two(1); }
    )");
    ASSERT_EQ(program->functions.size(), 2u);
}

TEST(Sema, PointerRules)
{
    auto program = parseAndCheck(R"(
        int main() {
            int a[4];
            int *p = a;
            int *q = p + 2;
            long d = q - p;
            if (p < q) { return (int)d; }
            return *q;
        }
    )");
    ASSERT_NE(program->findFunction("main"), nullptr);
}

TEST(Sema, LocalIdsAssignedInOrder)
{
    auto program = parseAndCheck(R"(
        int f(int p0, int p1) {
            int l2 = 0;
            { int l3 = 1; l2 = l3; }
            return l2 + p0 + p1;
        }
        int main() { return f(1, 2); }
    )");
    const auto &f = *program->functions[0];
    ASSERT_EQ(f.locals.size(), 4u);
    EXPECT_TRUE(f.locals[0].isParam);
    EXPECT_TRUE(f.locals[1].isParam);
    EXPECT_EQ(f.locals[2].name, "l2");
    EXPECT_EQ(f.locals[3].name, "l3");
}

TEST(Ast, CloneIsDeepAndAnnotated)
{
    auto program = parseAndCheck(R"(
        int main() { int a = 3; return a * 2; }
    )");
    auto clone = program->functions[0]->clone();
    // Mutating the clone must not affect the original.
    clone->body->body.clear();
    EXPECT_EQ(program->functions[0]->body->body.size(), 2u);
    EXPECT_EQ(clone->locals.size(),
              program->functions[0]->locals.size());
}

TEST(Types, InterningAndLayout)
{
    TypeContext types;
    const Type *p1 = types.pointerTo(types.intType());
    const Type *p2 = types.pointerTo(types.intType());
    EXPECT_EQ(p1, p2);
    const Type *arr = types.arrayOf(types.charType(), 10);
    EXPECT_EQ(arr->size(), 10u);
    EXPECT_EQ(types.arrayOf(types.charType(), 10), arr);
    EXPECT_EQ(p1->size(), 8u);
    EXPECT_TRUE(types.longType()->isSigned());
    EXPECT_FALSE(types.ulongType()->isSigned());
}

} // namespace
