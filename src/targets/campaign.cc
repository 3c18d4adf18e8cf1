#include "targets/campaign.hh"

#include <algorithm>

#include "compiler/compiler.hh"
#include "minic/parser.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sanitizers/sanitizers.hh"
#include "session/session.hh"
#include "support/logging.hh"

namespace compdiff::targets
{

namespace
{

/**
 * AFL-tmin-style witness reduction: shrink the input while it still
 * fires the bug's probe and still diverges. This is the automatic
 * counterpart of the paper's manual triage — without it, a witness
 * carrying several records would attribute *other* records' sanitizer
 * reports to this bug (Table 6 would be contaminated).
 */
support::Bytes
minimizeWitness(const core::DiffEngine &engine, vm::Vm &probe_vm,
                const support::Bytes &input, int probe)
{
    auto still_good = [&](const support::Bytes &candidate) {
        auto run = probe_vm.run(candidate);
        if (std::find(run.probes.begin(), run.probes.end(), probe) ==
            run.probes.end()) {
            return false;
        }
        return engine.runInput(candidate).divergent;
    };

    support::Bytes current = input;
    bool changed = true;
    for (int round = 0; round < 4 && changed; round++) {
        changed = false;
        for (std::size_t chunk = std::max<std::size_t>(
                 current.size() / 2, 1);
             chunk >= 1; chunk /= 2) {
            for (std::size_t pos = 0;
                 pos + chunk <= current.size();) {
                support::Bytes candidate = current;
                candidate.erase(
                    candidate.begin() +
                        static_cast<std::ptrdiff_t>(pos),
                    candidate.begin() +
                        static_cast<std::ptrdiff_t>(pos + chunk));
                if (still_good(candidate)) {
                    current = std::move(candidate);
                    changed = true;
                } else {
                    pos += chunk;
                }
            }
            if (chunk == 1)
                break;
        }
    }
    return current;
}

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
    core::DiffEngine engine(*program,
                            compiler::standardImplementations(),
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
        finding.witness =
            minimizeWitness(engine, probe_vm, record->input, probe);
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
