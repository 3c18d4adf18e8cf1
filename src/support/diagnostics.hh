#pragma once

/**
 * @file
 * Source locations and compile-time diagnostics for the MiniC frontend.
 */

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace compdiff::support
{

/** A (line, column) position in a MiniC source buffer; 1-based. */
struct SourceLoc
{
    std::uint32_t line = 0;
    std::uint32_t column = 0;

    bool valid() const { return line != 0; }
    std::string str() const;

    bool operator==(const SourceLoc &) const = default;
};

/** Severity of a diagnostic. */
enum class Severity
{
    Note,
    Warning,
    Error,
};

/** One frontend diagnostic message. */
struct Diagnostic
{
    Severity severity = Severity::Error;
    SourceLoc loc;
    std::string message;

    std::string str() const;
};

/**
 * Collects diagnostics during lexing, parsing, and semantic analysis.
 *
 * The frontend accumulates instead of throwing so that callers (e.g.
 * static analyzers, test harnesses) can inspect all problems at once.
 */
class DiagnosticEngine
{
  public:
    /** Record an error diagnostic. */
    void error(SourceLoc loc, std::string message);

    /** Record a warning diagnostic. */
    void warning(SourceLoc loc, std::string message);

    /** Record a note diagnostic. */
    void note(SourceLoc loc, std::string message);

    /** True if at least one error has been recorded. */
    bool hasErrors() const { return errorCount_ > 0; }

    /** All diagnostics, in emission order. */
    const std::vector<Diagnostic> &diagnostics() const { return diags_; }

    /** Render all diagnostics as one newline-separated string. */
    std::string str() const;

    /** Drop all recorded diagnostics. */
    void clear();

  private:
    std::vector<Diagnostic> diags_;
    std::size_t errorCount_ = 0;
};

/** Exception raised when a MiniC program fails to compile. */
class CompileError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

} // namespace compdiff::support
