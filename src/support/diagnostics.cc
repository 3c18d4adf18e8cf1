#include "support/diagnostics.hh"

#include <sstream>

namespace compdiff::support
{

std::string
SourceLoc::str() const
{
    std::ostringstream os;
    os << line << ":" << column;
    return os.str();
}

std::string
Diagnostic::str() const
{
    std::ostringstream os;
    switch (severity) {
      case Severity::Note: os << "note"; break;
      case Severity::Warning: os << "warning"; break;
      case Severity::Error: os << "error"; break;
    }
    os << " at " << loc.str() << ": " << message;
    return os.str();
}

void
DiagnosticEngine::error(SourceLoc loc, std::string message)
{
    diags_.push_back({Severity::Error, loc, std::move(message)});
    errorCount_++;
}

void
DiagnosticEngine::warning(SourceLoc loc, std::string message)
{
    diags_.push_back({Severity::Warning, loc, std::move(message)});
}

void
DiagnosticEngine::note(SourceLoc loc, std::string message)
{
    diags_.push_back({Severity::Note, loc, std::move(message)});
}

std::string
DiagnosticEngine::str() const
{
    std::string text;
    for (const auto &d : diags_) {
        if (!text.empty())
            text += '\n';
        text += d.str();
    }
    return text;
}

void
DiagnosticEngine::clear()
{
    diags_.clear();
    errorCount_ = 0;
}

} // namespace compdiff::support
