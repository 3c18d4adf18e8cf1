#include "targets/campaign.hh"

#include <algorithm>

#include "compiler/compiler.hh"
#include "minic/parser.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "reduce/input_reducer.hh"
#include "sanitizers/sanitizers.hh"
#include "session/session.hh"
#include "support/logging.hh"

namespace compdiff::targets
{

namespace
{

/** Candidates one witness minimization may try. Reduction is
 *  anytime, so the budget bounds only its cost. */
constexpr std::uint64_t kWitnessCandidateBudget = 1024;

/**
 * The reduce::Oracle of witness minimization: a smaller input keeps
 * the bug while it still fires the bug's probe on B_fuzz and still
 * diverges. This is the automatic counterpart of the paper's manual
 * triage — without it, a witness carrying several records would
 * attribute *other* records' sanitizer reports to this bug (Table 6
 * would be contaminated).
 */
class ProbeOracle : public reduce::Oracle
{
  public:
    ProbeOracle(const core::DiffEngine &engine, vm::Vm &probe_vm,
                int probe)
        : engine_(engine), probeVm_(probe_vm), probe_(probe)
    {}

    /** Any divergence that fires the probe will do, so the probe
     *  stands in for a signature. */
    std::uint64_t targetSignature() const override
    {
        return static_cast<std::uint64_t>(probe_);
    }

    bool preserves(const minic::Program &,
                   const support::Bytes &input) override
    {
        if (budgetExhausted())
            return false;
        stats_.tried++;
        const auto run = probeVm_.run(input);
        if (std::find(run.probes.begin(), run.probes.end(), probe_) ==
                run.probes.end() ||
            !engine_.runInput(input).divergent) {
            return false;
        }
        stats_.accepted++;
        return true;
    }

    bool budgetExhausted() const override
    {
        return stats_.tried >= kWitnessCandidateBudget;
    }

    const reduce::OracleStats &stats() const override { return stats_; }

  private:
    const core::DiffEngine &engine_;
    vm::Vm &probeVm_;
    const int probe_;
    reduce::OracleStats stats_;
};

} // namespace

session::SessionConfig
campaignConfig()
{
    session::SessionConfig config;
    config.fuzz.maxExecs = 60'000;
    config.fuzz.rngSeed = 0xA11CE;
    config.fuzz.maxInputSize = 64;
    config.fuzz.limits = {
        .maxInstructions = 200'000,
        .stackSize = 1 << 14,
        .heapSize = 1 << 15,
        .maxOutput = 1 << 16,
        .maxCallDepth = 64,
    };
    return config;
}

CampaignResult
runCampaign(const TargetProgram &target,
            const session::SessionConfig &config, bool check_sanitizers)
{
    obs::Span span("campaign." + target.name);
    obs::counter("campaign.targets").add();

    CampaignResult result;
    result.target = target.name;

    auto program = minic::parseAndCheck(target.source);

    // The session owns the lifecycle: configure → run → checkpoint →
    // resume → triage → report. Ephemeral unless config.dir is set.
    session::SessionConfig session_config = config;
    if (!session_config.dir.empty())
        session_config.dir += "/" + target.name;
    if (!session_config.triage.reportsDir.empty())
        session_config.triage.reportsDir += "/" + target.name;
    session::CampaignSession session(*program, target.seeds,
                                     session_config);
    const fuzz::ShardedResult &sharded = session.run();
    result.stats = sharded.total;
    result.halted = session.halted();
    if (result.halted) {
        // A halted campaign has only partial evidence; the resume
        // that completes the budget performs the triage below.
        return result;
    }
    result.reports = session.triage();

    // Triage: map each unique divergence back to planted bugs via
    // the probes its witness fired. The session's portable records
    // carry exactly the evidence this needs.
    const std::vector<session::DivergenceRecord> records =
        session.divergenceRecords();
    obs::Span triage_span("campaign.triage");
    std::map<int, const session::DivergenceRecord *> witness_for;
    const auto keep_untriaged =
        [&](const session::DivergenceRecord &record) {
            for (const auto &seen : result.untriaged)
                if (seen.signature == record.signature)
                    return;
            result.untriaged.push_back({record.signature,
                                        record.input,
                                        record.hashVector});
        };
    for (const auto &record : records) {
        if (record.probes.empty()) {
            // No probe fired: keep the full evidence, not just a
            // count — the reducer/bundler can still consume it.
            keep_untriaged(record);
            continue;
        }
        for (int probe : record.probes) {
            if (!witness_for.count(probe))
                witness_for[probe] = &record;
        }
    }

    // Per-bug analysis on *minimized* witnesses.
    const fuzz::FuzzOptions &fuzz_options = config.fuzz;
    core::DiffOptions diff_options = fuzz_options.diffOptions;
    diff_options.limits = fuzz_options.limits;
    core::DiffEngine engine(*program, fuzz_options.diffImpls,
                            diff_options);
    compiler::Compiler comp(*program);
    const compiler::CompilerConfig probe_config =
        fuzz_options.fuzzConfig;
    auto probe_module = comp.compile(probe_config);
    vm::Vm probe_vm(probe_module, probe_config, fuzz_options.limits);

    sanitizers::SanitizerRunner runner(*program, fuzz_options.limits);
    for (const auto &[probe, record] : witness_for) {
        const PlantedBug *bug = target.findBug(probe);
        if (!bug) {
            keep_untriaged(*record);
            continue;
        }
        BugFinding finding;
        finding.probeId = probe;
        finding.bug = bug;
        ProbeOracle oracle(engine, probe_vm, probe);
        finding.witness =
            reduce::reduceInput(oracle, *program, record->input)
                .reduced;
        finding.hashVector =
            engine.runInput(finding.witness).hashVector();
        if (check_sanitizers) {
            finding.asanFires =
                runner.check(compiler::Sanitizer::ASan,
                             finding.witness)
                    .fired;
            finding.ubsanFires =
                runner.check(compiler::Sanitizer::UBSan,
                             finding.witness)
                    .fired;
            finding.msanFires =
                runner.check(compiler::Sanitizer::MSan,
                             finding.witness)
                    .fired;
        }
        result.found.push_back(std::move(finding));
    }
    obs::counter("campaign.bugs_found").add(result.found.size());
    obs::counter("campaign.untriaged_diffs")
        .add(result.untriaged.size());
    return result;
}

std::vector<CampaignResult>
runAllCampaigns(const session::SessionConfig &config,
                bool check_sanitizers)
{
    std::vector<CampaignResult> results;
    for (const auto &target : allTargets())
        results.push_back(
            runCampaign(target, config, check_sanitizers));
    return results;
}

std::map<std::string, ColumnCounts>
aggregateByColumn(const std::vector<CampaignResult> &results)
{
    std::map<std::string, ColumnCounts> columns;
    for (const auto &target : allTargets()) {
        for (const auto &bug : target.bugs)
            columns[categoryColumn(bug.category)].planted++;
    }
    for (const auto &result : results) {
        for (const auto &finding : result.found) {
            ColumnCounts &c =
                columns[categoryColumn(finding.bug->category)];
            c.found++;
            if (finding.bug->confirmed)
                c.confirmed++;
            if (finding.bug->fixed)
                c.fixed++;
            if (finding.asanFires || finding.ubsanFires ||
                finding.msanFires) {
                c.sanitizerAlso++;
            }
        }
    }
    return columns;
}

} // namespace compdiff::targets
