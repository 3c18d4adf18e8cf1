#include "sancheck/sancheck.hh"

#include "compiler/cache.hh"
#include "sanitizers/sanitizers.hh"
#include "support/hash.hh"
#include "support/logging.hh"
#include "support/strings.hh"

namespace compdiff::sancheck
{

using compiler::Sanitizer;
using refinterp::UbKind;

const char *
findingKindName(FindingKind kind)
{
    return kind == FindingKind::FalseNegative ? "FN" : "FP";
}

bool
sanitizerCovers(Sanitizer which, UbKind kind)
{
    switch (which) {
      case Sanitizer::ASan:
        return kind == UbKind::OutOfBounds;
      case Sanitizer::UBSan:
        return kind == UbKind::SignedOverflow ||
               kind == UbKind::DivideByZero ||
               kind == UbKind::OversizedShift ||
               kind == UbKind::NullDeref;
      case Sanitizer::MSan:
        return kind == UbKind::UninitRead;
      case Sanitizer::None:
        return false;
    }
    return false;
}

std::string
SanFinding::signature() const
{
    return std::string("san:") + implId + ":" +
           refinterp::ubKindName(ubKind) + ":" +
           findingKindName(kind);
}

std::uint64_t
SanFinding::signatureHash() const
{
    return support::murmurHash64(signature());
}

std::string
SanFinding::str() const
{
    if (kind == FindingKind::FalseNegative) {
        return signature() + " — certified " +
               std::string(refinterp::ubKindName(ubKind)) + " @ " +
               certFunction + ":" + std::to_string(certLine) + " (" +
               certDetail + "), " + implId + " silent";
    }
    return signature() + " — certified UB-free, " + implId +
           " reported " + reportKind + " @ line " +
           std::to_string(reportLine);
}

bool
classifyOne(const refinterp::CertifiedRun &certified,
            const std::string &impl_id, Sanitizer sanitizer,
            const vm::ExecutionResult &sanitized, SanFinding *out)
{
    // Timeouts make silence unattributable on either side.
    if (certified.result.timedOut() || sanitized.timedOut())
        return false;

    if (!certified.certificates.empty()) {
        // Candidate FN: the first certificate is the authoritative
        // UB occurrence (real sanitizers abort on first report, so
        // later certificates are unreachable for them anyway).
        const refinterp::UbCertificate &cert =
            certified.certificates.front();
        if (!sanitizerCovers(sanitizer, cert.kind))
            return false;
        // A run that crashed before any verdict (layout-dependent
        // trap) is not evidence of detector silence.
        if (sanitized.crashed())
            return false;
        for (const vm::SanReport &report : sanitized.sanReports) {
            UbKind reported;
            if (sanitizers::reportUbKind(report, &reported) &&
                reported == cert.kind)
                return false; // detected: no finding
        }
        // A run the sanitizer aborted on an *unrelated* report never
        // reached the certified site (real tools stop at the first
        // report), so silence about it is unattributable.
        if (sanitized.termination ==
            vm::Termination::SanitizerAbort)
            return false;
        out->implId = impl_id;
        out->ubKind = cert.kind;
        out->kind = FindingKind::FalseNegative;
        out->certFunction = cert.function;
        out->certLine = cert.line;
        out->certDetail = cert.detail;
        out->reportKind.clear();
        out->reportLine = 0;
        return true;
    }

    // Candidate FP: certified UB-free requires a clean reference
    // exit — a trapping or aborting reference run proves nothing
    // about the paths the sanitized build took.
    if (certified.result.termination != vm::Termination::Exit)
        return false;
    if (sanitized.sanReports.empty())
        return false;
    const vm::SanReport &report = sanitized.sanReports.front();
    UbKind reported;
    if (!sanitizers::reportUbKind(report, &reported))
        return false; // allocator-state report, outside the taxonomy
    out->implId = impl_id;
    out->ubKind = reported;
    out->kind = FindingKind::FalsePositive;
    out->certFunction.clear();
    out->certLine = 0;
    out->certDetail.clear();
    out->reportKind = report.kind;
    out->reportLine = report.line;
    return true;
}

const char *const kDefaultImplSpec =
    "clang:-O1:asan,clang:-O1:ubsan,clang:-O2:ubsan,clang:-O1:msan";

core::ImplementationSet
defaultImplementations()
{
    return core::parseImplementations(kDefaultImplSpec);
}

void
validateImpls(const core::ImplementationSet &impls)
{
    if (impls.empty())
        support::fatal("sancheck: empty implementation set");
    for (const auto &impl : impls) {
        const compiler::CompilerConfig *config =
            impl->simulatedConfig();
        if (!config || config->sanitizer == Sanitizer::None)
            support::fatal("sancheck: implementation '" + impl->id() +
                           "' has no sanitizer instrumentation "
                           "(need specs like clang:-O1:ubsan)");
    }
}

SanCheckOracle::SanCheckOracle(const minic::Program &program,
                               core::ImplementationSet impls,
                               vm::VmLimits limits)
    : impls_(std::move(impls)), limits_(limits)
{
    validateImpls(impls_);
    ref_ = std::make_unique<refinterp::RefInterpreter>(program,
                                                      limits_);
    for (const auto &impl : impls_) {
        Member member;
        member.id = impl->id();
        member.config = *impl->simulatedConfig();
        member.module =
            compiler::compileCached(program, member.config);
        member.vm = std::make_unique<vm::Vm>(*member.module,
                                             member.config, limits_);
        members_.push_back(std::move(member));
    }
}

SanCheckOracle::~SanCheckOracle() = default;

Outcome
SanCheckOracle::runInput(const support::Bytes &input,
                         std::uint64_t nonce)
{
    Outcome out;
    out.certified = ref_->certify(input, nonce);
    out.sanitized.reserve(members_.size());
    for (Member &member : members_) {
        out.sanitized.push_back(
            member.vm->run(input, nullptr, nonce));
        SanFinding finding;
        if (classifyOne(out.certified, member.id,
                        member.config.sanitizer,
                        out.sanitized.back(), &finding))
            out.findings.push_back(std::move(finding));
    }
    return out;
}

std::vector<std::string>
SanCheckOracle::configIds() const
{
    std::vector<std::string> ids;
    ids.push_back("ref");
    for (const Member &member : members_)
        ids.push_back(member.id);
    return ids;
}

} // namespace compdiff::sancheck
