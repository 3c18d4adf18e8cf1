/**
 * @file
 * Tests for the generic MiniC AST walker (minic/walk.hh).
 *
 * The walk order feeds canonical names, compile-cache keys and
 * session fingerprints, so it is pinned here against a hand-written
 * list: one program that holds every expression and statement kind,
 * visited children first in print order by both the mutable-slot
 * walk and the const-node walk.
 */

#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

#include "minic/parser.hh"
#include "minic/printer.hh"
#include "minic/walk.hh"

namespace
{

using namespace compdiff::minic;

/** Every ExprKind and every StmtKind at least once. */
constexpr const char *kEveryKind = R"(
struct pair { int a; int b; };
int main() {
    struct pair p;
    int v[2];
    double d = 1.5;
    char *s = "hi";
    p.a = sizeof(int);
    v[1] = (int)d + -p.a;
    if (v[1] > 0) { v[0] = v[1] ? 1 : 2; } else v[0] = 3;
    while (v[0] < 5) {
        v[0] += 1;
        if (v[0] == 4) break; else continue;
    }
    for (int i = 0; i < 2; i = i + 1) print_int(v[i]);
    return input_byte(0);
}
)";

/** The visit sequence below main's body: statements by kind,
 *  expressions by their printed text (the printer parenthesizes
 *  binary and conditional expressions). */
const std::vector<std::string> kExpected = {
    // struct pair p;  int v[2];
    "VarDecl", "VarDecl",
    // double d = 1.5;
    "1.5", "VarDecl",
    // char *s = "hi";
    "\"hi\"", "VarDecl",
    // p.a = sizeof(int);
    "p", "p.a", "sizeof(int)", "p.a = sizeof(int)", "ExprStmt",
    // v[1] = (int)d + -p.a;
    "v", "1", "v[1]", "d", "(int)d", "p", "p.a", "-p.a",
    "((int)d + -p.a)", "v[1] = ((int)d + -p.a)", "ExprStmt",
    // if (v[1] > 0) { v[0] = v[1] ? 1 : 2; } else v[0] = 3;
    "v", "1", "v[1]", "0", "(v[1] > 0)",
    "v", "0", "v[0]", "v", "1", "v[1]", "1", "2", "(v[1] ? 1 : 2)",
    "v[0] = (v[1] ? 1 : 2)", "ExprStmt", "Block",
    "v", "0", "v[0]", "3", "v[0] = 3", "ExprStmt", "If",
    // while (v[0] < 5) { v[0] += 1; if (...) break; else continue; }
    "v", "0", "v[0]", "5", "(v[0] < 5)",
    "v", "0", "v[0]", "1", "v[0] += 1", "ExprStmt",
    "v", "0", "v[0]", "4", "(v[0] == 4)", "Break", "Continue", "If",
    "Block", "While",
    // for (int i = 0; i < 2; i = i + 1) print_int(v[i]);
    "0", "VarDecl", "i", "2", "(i < 2)", "i", "i", "1", "(i + 1)",
    "i = (i + 1)", "v", "i", "v[i]", "print_int(v[i])", "ExprStmt",
    "For",
    // return input_byte(0);
    "0", "input_byte(0)", "Return",
};

std::string
label(const Stmt &stmt)
{
    static const char *const kNames[] = {
        "Block", "VarDecl", "If",       "While",    "For",
        "Return", "Break",  "Continue", "ExprStmt",
    };
    return kNames[static_cast<int>(stmt.kind())];
}

std::string
label(const Expr &expr)
{
    return printExpr(expr);
}

TEST(AstWalk, ProgramCoversEveryNodeKind)
{
    auto program = parseAndCheck(kEveryKind);
    std::vector<bool> exprs(13), stmts(9);
    walkNodes(*program->findFunction("main")->body,
              [&](const auto &node) {
                  if constexpr (std::is_same_v<decltype(node),
                                               const Expr &>)
                      exprs[static_cast<int>(node.kind())] = true;
                  else
                      stmts[static_cast<int>(node.kind())] = true;
              });
    EXPECT_EQ(exprs, std::vector<bool>(13, true));
    EXPECT_EQ(stmts, std::vector<bool>(9, true));
}

TEST(AstWalk, SlotWalkVisitsChildrenFirstInPrintOrder)
{
    auto program = parseAndCheck(kEveryKind);
    std::vector<std::string> seen;
    walkSlots(*program->findFunction("main")->body,
              [&](auto &slot) { seen.push_back(label(*slot)); });
    // The body block has no slot, so it is not reported.
    EXPECT_EQ(seen, kExpected);
}

TEST(AstWalk, NodeWalkVisitsChildrenFirstInPrintOrder)
{
    auto program = parseAndCheck(kEveryKind);
    std::vector<std::string> seen;
    walkNodes(*program->findFunction("main")->body,
              [&](const auto &node) { seen.push_back(label(node)); });
    std::vector<std::string> expected = kExpected;
    expected.push_back("Block"); // the root comes last
    EXPECT_EQ(seen, expected);
}

TEST(AstWalk, CallbackTypeSelectsNodesAndReplacementsAreNotWalked)
{
    auto program = parseAndCheck(kEveryKind);
    BlockStmt &body = *program->findFunction("main")->body;

    std::size_t statements = 0;
    walkSlots(body, [&](StmtPtr &) { statements++; });
    EXPECT_EQ(statements, 20u);

    // Replace every `v[e]` with `v[v[0]]`. Were the replacement
    // walked, its inner `v[0]` would be replaced in turn, without
    // end; the cap keeps such a failure finite.
    std::size_t replaced = 0;
    walkSlots(body, [&](ExprPtr &slot) {
        if (slot->kind() != ExprKind::Index || replaced == 100)
            return;
        const SourceLoc loc = slot->loc();
        const auto &base = *static_cast<IndexExpr &>(*slot).base;
        auto inner = std::make_unique<IndexExpr>(
            loc, base.clone(), std::make_unique<IntLitExpr>(loc, 0));
        slot = std::make_unique<IndexExpr>(loc, base.clone(),
                                           std::move(inner));
        replaced++;
    });
    EXPECT_EQ(replaced, 9u);

    // The expression-root form reports the root slot last.
    auto sum = parseAndCheck("int main() { return 1 + 2; }");
    auto &ret = static_cast<ReturnStmt &>(
        *sum->findFunction("main")->body->body[0]);
    std::vector<std::string> seen;
    walkSlots(ret.value,
              [&](ExprPtr &slot) { seen.push_back(label(*slot)); });
    EXPECT_EQ(seen, (std::vector<std::string>{"1", "2", "(1 + 2)"}));
}

} // namespace
