#include "program_gen.hh"

#include <vector>

#include "support/rng.hh"
#include "support/strings.hh"

namespace compdiff::testgen
{

namespace
{

using support::format;

/** The scalar types. A variable is named by its type's letter and a
 *  number: i0, u0, l0, d0. */
enum Ty
{
    Int, UInt, Long, Double, kTypes
};
const char *const kTypeName[] = {"int", "uint", "long", "double"};
const char kLetter[] = "iuld";
const char *const kSuffix[] = {"", "U", "L", ""};
const char *const kPrint[] = {"print_int", "print_uint", "print_long",
                              "print_f"};

class Generator
{
  public:
    Generator(std::uint64_t seed, Mode mode)
        : rng_(seed), safe_(mode == Mode::UbFree)
    {}

    std::string
    program(Shape shape, int depth)
    {
        globals_ = 1 + pick(3);
        std::string text;
        for (int g = 0; g < globals_; g++)
            text += format("int g%d = %d;\n", g, pick(21));
        text += format("int ga[8];\n\nint helper(int p0, int p1) {\n"
                       "%sreturn (((p0 + p1) %% 256) + g0);\n}\n\n",
                       oneIn(3) ? "print_str(\"h\");\n" : "");
        if (oneIn(2)) // never called
            text += "int decoy(int q) {\nreturn (q + 41);\n}\n\n";

        std::string body;
        for (int ty = 0; ty < kTypes; ty++) {
            counts_[ty] = ty == Int ? 2 + pick(3) : 1 + pick(2);
            for (int n = 0; n < counts_[ty]; n++) {
                body += format("%s %c%d = %s;\n", kTypeName[ty],
                               kLetter[ty], n,
                               literal(static_cast<Ty>(ty)).c_str());
            }
        }
        for (int s = 1 + pick(2); s > 0; s--) {
            std::string bytes;
            for (int c = 1 + pick(8); c > 0; c--)
                bytes += static_cast<char>('a' + pick(26));
            body += format("char *s%zu = \"%s\";\n", strings_.size(),
                           bytes.c_str());
            strings_.push_back(static_cast<int>(bytes.size()));
        }
        body += "int a0[8];\nfor (int k = 0; k < 8; k += 1) {\n"
                "a0[k] = (k * 3);\n}\n";

        std::string run;
        for (int n = 3 + pick(6); n > 0; n--)
            run += statement(2);
        if (shape == Shape::CyclingLoop)
            run = format("while (i0 != %d) {\n", pick(2048) - 1024) +
                  run + "}\n";
        if (shape == Shape::StringOverread) {
            run += format("print_int(s0[%d]);\nnewline();\n",
                          strings_[0] + 1 + pick(8));
        }
        if (shape == Shape::Deep)
            run += deep(static_cast<std::size_t>(depth));
        body += run;
        if (oneIn(3)) // unreachable
            body += "if (0) {\nreturn 9;\n" + var(Int) + " = 1;\n}\n";
        for (int ty = 0; ty < kTypes; ty++) {
            for (int n = 0; n < counts_[ty]; n++)
                body += format("%s(%c%d);\nnewline();\n", kPrint[ty],
                               kLetter[ty], n);
        }
        body += "return 0;\n";
        if (oneIn(4)) // a dead tail
            body += "print_int(i0);\n";
        return text + "int main() {\n" + body + "}\n";
    }

  private:
    int pick(std::size_t n) { return static_cast<int>(rng_.below(n)); }
    bool oneIn(int n) { return pick(n) == 0; }
    /** A division or index left unguarded: never in UbFree mode. */
    bool wild() { return !safe_ && oneIn(3); }
    std::string var(Ty ty)
    {
        return format("%c%d", kLetter[ty], pick(counts_[ty]));
    }

    std::string literal(Ty ty)
    {
        if (ty == Double) {
            std::string text = format("%d.%d", pick(40), pick(1000));
            return oneIn(4) ? text + format("e%+d", pick(7) - 3) : text;
        }
        const long value = ty == UInt ? pick(41) : rng_.range(-30, 30);
        return std::to_string(value) + kSuffix[ty];
    }

    /** `array[index]` of an 8-element array. */
    std::string element(const char *array)
    {
        if (!wild())
            return format("%s[(%s & 7)]", array, var(Int).c_str());
        return format("%s[%s]", array, var(Int).c_str());
    }

    std::string leaf(Ty ty)
    {
        switch (pick(7)) {
          case 0:
            return literal(ty);
          case 1: // a conversion, or for int a comparison of doubles
            if (ty == Int)
                return "(" + leaf(Double) + " < " + leaf(Double) + ")";
            if (ty == UInt)
                return "(uint)(" + var(Int) + " & 1023)";
            return format("(%s)", kTypeName[ty]) + var(Int);
          case 2: { // an element of an array or a string
            if (ty != Int)
                break;
            const int s = pick(strings_.size());
            if (oneIn(2))
                return element(oneIn(2) ? "a0" : "ga");
            return format("s%d[%d]", s,
                          pick(strings_[s] + (safe_ ? 1 : 9)));
          }
          case 3:
            if (ty != Int)
                break;
            return oneIn(2) ? format("input_byte(%d)", pick(6))
                            : format("g%d", pick(globals_));
          case 4: // builtins whose results differ by implementation
            if (safe_ || ty == UInt)
                break;
            if (ty == Int)
                return oneIn(2) ? "cur_line()" : "bad_rand()";
            return ty == Long ? "time_stamp()"
                              : "pow_f(" + var(Double) + ", 0.5)";
        }
        return var(ty);
    }

    std::string expr(Ty ty, int depth = 0)
    {
        if (depth >= 2 || oneIn(3))
            return leaf(ty);
        const std::string a = expr(ty, depth + 1);
        const std::string b = expr(ty, depth + 1);
        const std::string suffix = kSuffix[ty];
        switch (const int op = pick(ty == Double ? 4 : 9)) {
          case 0:
            return "(" + a + " + " + b + ")";
          case 1:
            // A seeded UBSan defect reports unsigned wraps.
            if (safe_ && ty == UInt)
                return "(" + a + " | " + b + ")";
            return "(" + a + " - " + b + ")";
          case 2:
            if (safe_ && ty != Double) {
                return "((" + a + " % 100" + suffix + ") * (" + b +
                       " % 100" + suffix + "))";
            }
            return "(" + a + " * " + b + ")";
          case 3:
          case 4: {
            const char *spelling = op == 3 ? " / " : " % ";
            if (wild())
                return "(" + a + spelling + b + ")";
            // Literal divisors 8 and 32 meet seeded miscompiles.
            const std::string d = var(ty);
            std::string zero = (ty == Double ? "0.0" : "0") + suffix;
            return "((" + d + " == " + zero + ") ? " + zero + " : (" +
                   a + spelling + d + "))";
          }
          case 5:
          case 6: {
            const char *spelling = op == 5 ? " << " : " >> ";
            if (!safe_)
                return "(" + a + spelling + expr(Int, 2) + ")";
            return "((" + a + " & 255" + suffix + ")" + spelling + "(" +
                   var(Int) + " & 7))";
          }
          case 7:
            return "(" + a + " & " + b + ")";
          default:
            return "(" + a + " ^ " + b + ")";
        }
    }

    std::string statement(int nest)
    {
        const Ty ty = static_cast<Ty>(pick(kTypes));
        const std::string v = var(ty);
        switch (pick(nest > 0 ? 12 : 8)) {
          case 0: { // a run of plain assignments, for the sorter
            std::string run;
            for (int n = 2 + pick(3); n > 0; n--)
                run += var(ty) + " = " + literal(ty) + ";\n";
            return run;
          }
          case 1:
            return var(Int) + " = helper(" + expr(Int, 1) + ", " +
                   expr(Int, 1) + ");\n";
          case 2:
            return kPrint[ty] + ("(" + v + ");\nnewline();\n");
          case 3:
            if (oneIn(2))
                return var(Int) + " = read_byte();\n";
            return format("%s(s%d);\n",
                          safe_ ? "print_str" : "print_ptr",
                          pick(strings_.size()));
          case 4:
            return element(oneIn(2) ? "a0" : "ga") + " = (" +
                   expr(Int) + " % 1024);\n";
          case 8:
            return "if (" + expr(ty, 1) + " < " + expr(ty, 1) + ") " +
                   block(nest - 1) + "else " + block(nest - 1);
          case 9: {
            const int k = loops_++;
            return format("for (int k%d = 0; k%d < %d; k%d += 1) ", k,
                          k, 1 + pick(6), k) +
                   block(nest - 1);
          }
          case 10: { // steps by 0, and cycles, only where faults may
            const int w = loops_++;
            const int step = safe_ || !oneIn(6) ? 1 : 0;
            return format("{\nint w%d = 0;\nwhile (w%d < %d) ", w, w,
                          1 + pick(6)) +
                   block(nest - 1, format("w%d += %d;\n", w, step)) +
                   "}\n";
          }
          case 11:
            return block(nest - 1);
          default:
            if (ty == Double)
                return v + " = " + expr(ty) + ";\n";
            return v + " = (" + expr(ty) + " % 1024" + kSuffix[ty] +
                   ");\n";
        }
    }

    std::string block(int nest, const std::string &tail = "")
    {
        std::string text = "{\n";
        for (int n = 1 + pick(3); n > 0; n--)
            text += statement(nest);
        return text + tail + "}\n";
    }

    /** A statement of main nesting `depth` levels: itself, and each
     *  block, call, assignment and operator (a group is no level). */
    std::string deep(std::size_t depth)
    {
        if (oneIn(2)) {
            return std::string(depth - 2, '{') + "print_int(i0);\n" +
                   std::string(depth - 2, '}') + "\n";
        }
        std::string chain = "i1"; // left-deep, in the printer's form
        for (std::size_t n = 3; n <= depth; n++)
            chain = "(" + chain + (n % 2 ? " + 1)" : " - 1)");
        return "i0 = " + chain + ";\n";
    }

    support::Rng rng_;
    const bool safe_;
    int globals_ = 0;
    int counts_[kTypes] = {};
    std::vector<int> strings_; ///< the length of s0, s1, ...
    int loops_ = 0;
};

} // namespace

std::string
generateProgram(std::uint64_t seed, Mode mode, Shape shape, int depth)
{
    return Generator(seed, mode).program(shape, depth);
}

std::string
resultKey(const vm::ExecutionResult &result)
{
    std::string key = result.exitClass();
    key += "|" + std::to_string(result.exitCode);
    key += "|" + std::to_string(static_cast<int>(result.termination));
    key += "|" + std::to_string(static_cast<int>(result.trap));
    key += "|" + std::to_string(result.instructions);
    for (int probe : result.probes)
        key += ",p" + std::to_string(probe);
    for (const auto &report : result.sanReports)
        key += ",s" + report.str();
    key += "|" + result.output;
    return key;
}

} // namespace compdiff::testgen
