#pragma once

/**
 * @file
 * The tests' one random MiniC program generator: a typed grammar of
 * globals, helper and decoy functions, int/uint/long/double values,
 * float and string literals, arrays, loops, nesting and dead code.
 */

#include <cstdint>
#include <string>

#include "vm/result.hh"

namespace compdiff::testgen
{

enum class Mode
{
    /** No undefined behavior, every loop ends, and no builtin whose
     *  result implementations may legitimately disagree on (cur_line,
     *  time_stamp, bad_rand, print_ptr, pow_f). */
    UbFree,
    /** Unguarded arithmetic and indices, reads past string literals,
     *  loops that may not end, and those builtins. */
    MayFault,
};

/** What every program of a suite contains. */
enum class Shape
{
    None,
    CyclingLoop,    ///< main runs in a `while` that may never exit
    StringOverread, ///< a read past a string literal: UbFree's only UB
    Deep, ///< a statement nesting `depth` levels, as the parser counts
};

std::string generateProgram(std::uint64_t seed, Mode mode,
                            Shape shape = Shape::None, int depth = 0);

/** Everything one execution observes, as one comparable string. */
std::string resultKey(const vm::ExecutionResult &result);

} // namespace compdiff::testgen
