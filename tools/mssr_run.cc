/**
 * mssr_run: command-line front end for the simulator. Runs one or
 * more named workloads (or an assembly file) under a chosen
 * squash-reuse scheme and prints statistics. Multiple workloads (and
 * the --compare baselines) are executed in parallel through the
 * BatchRunner; output order always follows the command line.
 *
 * Usage:
 *   mssr_run [options] <workload> [<workload> ...]
 *   mssr_run [options] --asm <file.s>
 *
 * `mssr_run --help` prints the flag reference; docs/TOOLS.md is the
 * man page. The simulation flags (--reuse, --streams, --scale, ...)
 * are job keys: they fill one ServeJobSpec through the shared key
 * table (driver/job_spec.hh), so a command line and the same job
 * submitted to mssr_serve simulate the same machine, and a --compare
 * baseline is that spec with the reuse scheme switched off.
 *
 * Each job records into its own PipeView, so tracing composes with
 * parallel execution and the per-job event streams stay deterministic.
 */

#include <cctype>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "analysis/report.hh"
#include "common/argparse.hh"
#include "common/build_info.hh"
#include "common/log.hh"
#include "common/pipeview.hh"
#include "common/serialize.hh"
#include "driver/batch_runner.hh"
#include "driver/job_record.hh"
#include "isa/assembler.hh"
#include "workloads/registry.hh"

using namespace mssr;

namespace
{

void
printUsage(std::ostream &os, const char *argv0)
{
    os << "usage: " << argv0
       << " [--reuse none|rgid|regint] [--streams N] [--entries P]"
          "\n        [--sets S] [--ways W] [--predictor tage|"
          "gshare|bimodal]\n        [--max-insts N] [--scale G] "
          "[--iters I] [--jobs N] [--bloom]\n        [--trace] "
          "[--trace-out FILE] [--stats-out FILE] "
          "[--all-stats]\n        [--pipeview-out FILE] "
          "[--view-start-cycle C] [--view-cycles K]\n        "
          "[--profile-out FILE] "
          "[--fast-forward K] [--ckpt-dir DIR] [--warm-bpu]\n        "
          "[--stats-host-time] [--sample-period N "
          "--sample-window K]\n        [--sample-windows-out FILE] "
          "[--log-level error|warn|info|debug]\n        [--log-out FILE] "
          "[--progress-every N] [--metrics-out FILE] [--version]\n        "
          "[--compare] (<workload>... | --asm <file.s> | --list)\n";
}

[[noreturn]] void
usage(const char *argv0)
{
    printUsage(std::cerr, argv0);
    std::exit(2);
}

/** Full flag reference for --help (stdout, exit 0 -- not an error). */
[[noreturn]] void
help(const char *argv0)
{
    printUsage(std::cout, argv0);
    std::cout <<
        "\nOptions:\n"
        "  --reuse none|rgid|regint  squash-reuse scheme (default rgid)\n"
        "  --streams N               RGID streams (default 4)\n"
        "  --entries P               squash-log entries/stream (default "
        "64)\n"
        "  --sets S --ways W         Register Integration geometry "
        "(default 64x4)\n"
        "  --predictor tage|gshare|bimodal  branch predictor (default "
        "tage)\n"
        "  --max-insts N             stop after N detailed commits\n"
        "  --scale G --iters I       workload sizing\n"
        "  --jobs N                  worker threads (default: MSSR_JOBS "
        "or hardware concurrency)\n"
        "  --bloom                   Bloom hazard check instead of "
        "re-execute verify\n"
        "  --trace                   record pipeline events (text to "
        "stderr)\n"
        "  --trace-out FILE          write events as Chrome trace_event "
        "JSON (implies --trace)\n"
        "  --pipeview-out FILE       write per-instruction pipeline "
        "lifecycles (with\n"
        "                            squash-reuse lanes) as a Kanata 0004 "
        "log for Konata;\n"
        "                            multi-job runs write "
        "FILE-stem.<i>_<job>.<ext>\n"
        "  --view-start-cycle C      bound trace/pipeview output to "
        "instructions fetched\n"
        "                            in cycles [C, C+K); simulated results "
        "are unaffected\n"
        "  --view-cycles K           length of the output window "
        "(K >= 1)\n"
        "  --stats-out FILE          write mssr-stats-v1 JSON (.prom: "
        "Prometheus text)\n"
        "  --profile-out FILE        write mssr-profile-v1 JSON (.folded: "
        "flamegraph lines)\n"
        "  --fast-forward K          functionally emulate the first K "
        "insts, then simulate\n"
        "                            the remainder in detail from the "
        "snapshot\n"
        "  --ckpt-dir DIR            cache fast-forward snapshots in DIR "
        "(mssr-ckpt-v2;\n"
        "                            load on hit, save on miss, corrupt "
        "file exits 2)\n"
        "  --warm-bpu                pre-train the predictor from the "
        "prefix's branches\n"
        "  --stats-host-time         include ff_host_sec/ff_kips in "
        "--stats-out JSON\n"
        "                            (off by default: keeps stats files "
        "byte-deterministic)\n"
        "  --sample-period N         sampled simulation: checkpoint the "
        "functional run\n"
        "                            every N insts and detail-simulate "
        "only the\n"
        "                            --sample-window insts from each "
        "checkpoint, with\n"
        "                            95% confidence intervals on the "
        "estimates\n"
        "  --sample-window K         detailed instructions per window "
        "(0 < K <= N)\n"
        "  --sample-windows-out FILE write the per-window runs as "
        "mssr-stats-v1 JSON\n"
        "  --log-level LVL           structured-logger threshold: error, "
        "warn, info\n"
        "                            (default) or debug; overrides "
        "MSSR_LOG\n"
        "  --log-out FILE            mirror log records to FILE as JSON "
        "lines\n"
        "  --progress-every N        log batch progress (done/total, ETA, "
        "kips) every\n"
        "                            N seconds\n"
        "  --metrics-out FILE        atomically rewrite FILE as a "
        "Prometheus textfile\n"
        "                            of the live host metrics (heartbeat "
        "+ completion)\n"
        "  --version                 print build provenance and exit 0\n"
        "  --all-stats               dump every counter\n"
        "  --compare                 also run the no-reuse baseline\n"
        "  --asm FILE                assemble and run FILE instead of a "
        "named workload\n"
        "  --list                    list available workloads\n"
        "  --help                    print this reference and exit 0\n"
        "\nExit status: 0 success; 1 runtime failure; 2 bad usage or "
        "invalid input file.\n";
    std::exit(0);
}

/**
 * Strictly parses a numeric flag value; on garbage prints the
 * offending flag and value, then the usage text, and exits non-zero
 * (the seed fed these straight into std::stoul and died with an
 * uncaught std::invalid_argument).
 */
std::uint64_t
numValue(const char *argv0, const std::string &flag, const std::string &v,
         std::uint64_t min_value = 0,
         std::uint64_t max_value = std::numeric_limits<std::uint64_t>::max())
{
    std::string why;
    const std::optional<std::uint64_t> parsed =
        parseFlagU64(v, min_value, max_value, why);
    if (!parsed) {
        std::cerr << "mssr_run: invalid value '" << v << "' for " << flag
                  << " (" << why << ")\n";
        usage(argv0);
    }
    return *parsed;
}

/** A path flag's value; an empty one is a usage error. */
std::string
pathValue(const char *argv0, const std::string &flag, std::string v,
          const char *what = "file name")
{
    if (v.empty()) {
        std::cerr << "mssr_run: " << flag << " needs a non-empty " << what
                  << "\n";
        usage(argv0);
    }
    return v;
}

/**
 * Output file for job @p index of @p total. A single job writes
 * exactly the requested FILE; a multi-job batch derives one file per
 * job as "<stem>.<index>_<sanitized job name><ext>" — a pure function
 * of the command line, so names are identical at any --jobs count.
 */
std::string
pipeviewJobFile(const std::string &file, std::size_t index,
                const std::string &name, std::size_t total)
{
    if (total == 1)
        return file;
    const std::filesystem::path p(file);
    std::string safe;
    for (char c : name)
        safe += (std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
                 c == '_')
                    ? c
                    : '_';
    return (p.parent_path() /
            (p.stem().string() + "." + std::to_string(index) + "_" + safe +
             p.extension().string()))
        .string();
}

void
printSummary(const std::string &label, const RunResult &r)
{
    std::cout << label << ": " << r.cycles << " cycles, " << r.insts
              << " insts, IPC " << analysis::fixed(r.ipc, 4);
    if (r.stats.has("reuse.success"))
        std::cout << ", reuses " << r.stats.get("reuse.success");
    if (r.stats.has("ri.integrations"))
        std::cout << ", integrations " << r.stats.get("ri.integrations");
    if (r.ffInsts) {
        std::cout << " (+" << r.ffInsts << " ff insts, ckpt "
                  << (r.ckptHit ? "hit" : "miss");
        // Warm-up throughput. Only the group owner paid for the prefix
        // (disk hits and shared-group members carry ~0s), so only it
        // gets a meaningful rate.
        if (r.ffHostSeconds > 0.0 && !r.ckptHit)
            std::cout << ", ff "
                      << analysis::fixed(kipsOf(r.ffInsts, r.ffHostSeconds),
                                         0)
                      << " kips";
        std::cout << ")";
    }
    std::cout << " [" << analysis::fixed(r.hostSeconds, 2) << "s host, "
              << analysis::fixed(r.kips, 0) << " kips]\n";
}

void
printSampledSummary(const std::string &label, const SampledRunResult &r)
{
    std::cout << label << ": sampled " << r.windows << " windows x "
              << r.sampleWindow << " insts (period " << r.samplePeriod
              << "; " << r.insts << " of " << r.totalInsts
              << " insts in detail), IPC " << analysis::fixed(r.ipc, 4);
    if (r.ipcEst.n >= 2)
        std::cout << ", est " << analysis::fixed(r.ipcEst.mean, 4)
                  << " +/- " << analysis::fixed(r.ipcEst.ci95, 4)
                  << " (95% CI, n=" << r.ipcEst.n << ")";
    std::cout << " [" << analysis::fixed(r.hostSeconds, 2)
              << "s detail + " << analysis::fixed(r.scanHostSeconds, 2)
              << "s scan";
    if (r.scanDiskHits)
        std::cout << ", " << r.scanDiskHits << " store hit"
                  << (r.scanDiskHits == 1 ? "" : "s");
    std::cout << "]\n";
}

} // namespace

int
main(int argc, char **argv)
{
    // The simulation flags fill one job spec through the shared job-key
    // table (driver/job_spec.hh); MSSR_SCALE/MSSR_ITERS/MSSR_SEED seed
    // its program size, which --scale/--iters override.
    ServeJobSpec spec;
    const workloads::WorkloadScale envScale =
        workloads::WorkloadScale::fromEnv();
    spec.scale = envScale.graphScale;
    spec.iters = envScale.iterations;
    spec.seed = envScale.seed;
    std::vector<std::string> workloadNames;
    std::string asmFile;
    std::string traceOutFile;
    std::string pipeviewOutFile;
    std::string statsOutFile;
    std::string profileOutFile;
    std::string ckptDir;
    std::string sampleWindowsOutFile;
    std::string logOutFile;
    std::string metricsOutFile;
    std::uint64_t progressEvery = 0;
    std::uint64_t viewStartCycle = 0;
    std::uint64_t viewCycles = 0;
    bool viewStartSet = false;
    unsigned jobsOverride = 0;
    bool traceOn = false;
    bool allStats = false;
    bool compare = false;
    bool statsHostTime = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        try {
            if (parseJobFlag(spec, arg, next))
                continue;
        } catch (const std::invalid_argument &e) {
            std::cerr << "mssr_run: " << e.what() << "\n";
            usage(argv[0]);
        }
        if (arg == "--ckpt-dir") {
            ckptDir = pathValue(argv[0], arg, next(), "directory");
        } else if (arg == "--stats-host-time") {
            statsHostTime = true;
        } else if (arg == "--sample-windows-out") {
            sampleWindowsOutFile = pathValue(argv[0], arg, next());
        } else if (arg == "--log-level") {
            const std::string v = next();
            LogLevel level;
            if (!parseLogLevel(v, level)) {
                std::cerr << "mssr_run: invalid value '" << v
                          << "' for --log-level (want error|warn|info|"
                             "debug)\n";
                usage(argv[0]);
            }
            Logger::global().setLevel(level);
        } else if (arg == "--log-out") {
            logOutFile = pathValue(argv[0], arg, next());
        } else if (arg == "--progress-every") {
            progressEvery = numValue(argv[0], arg, next());
        } else if (arg == "--metrics-out") {
            metricsOutFile = pathValue(argv[0], arg, next());
        } else if (arg == "--version") {
            std::cout << "mssr_run " << buildInfoLine() << "\n";
            return 0;
        } else if (arg == "--jobs") {
            jobsOverride = static_cast<unsigned>(
                numValue(argv[0], arg, next(), 0,
                         std::numeric_limits<unsigned>::max()));
        } else if (arg == "--stats-out") {
            statsOutFile = next();
        } else if (arg == "--profile-out") {
            profileOutFile = next();
        } else if (arg == "--trace") {
            traceOn = true;
        } else if (arg == "--trace-out") {
            traceOutFile = next();
            traceOn = true;
        } else if (arg == "--pipeview-out") {
            pipeviewOutFile = pathValue(argv[0], arg, next());
        } else if (arg == "--view-start-cycle") {
            viewStartCycle = numValue(argv[0], arg, next());
            viewStartSet = true;
        } else if (arg == "--view-cycles") {
            viewCycles = numValue(argv[0], arg, next(), 1);
        } else if (arg == "--all-stats") {
            allStats = true;
        } else if (arg == "--compare") {
            compare = true;
        } else if (arg == "--asm") {
            asmFile = next();
        } else if (arg == "--list") {
            for (const std::string &suite : workloads::suiteNames()) {
                std::cout << suite << ":";
                for (const auto &w : workloads::suiteWorkloads(suite))
                    std::cout << " " << w.name;
                std::cout << "\n";
            }
            return 0;
        } else if (arg == "--help") {
            help(argv[0]);
        } else if (arg[0] == '-') {
            std::cerr << "mssr_run: unknown option '" << arg << "'\n";
            usage(argv[0]);
        } else {
            workloadNames.push_back(arg);
        }
    }
    if (workloadNames.empty() && asmFile.empty())
        usage(argv[0]);
    if ((viewStartSet || viewCycles != 0) && !traceOn &&
        pipeviewOutFile.empty()) {
        std::cerr << "mssr_run: --view-start-cycle/--view-cycles bound "
                     "--trace-out/--pipeview-out output; add one of "
                     "those flags\n";
        usage(argv[0]);
    }
    if (spec.samplePeriod != 0 || spec.sampleWindow != 0 ||
        !sampleWindowsOutFile.empty()) {
        // Sampled mode owns the whole run shape: it fast-forwards to
        // every window itself, always replays the prefix branches into
        // the predictor, and reports estimates instead of a single
        // exact stream -- so the knobs that assume one contiguous
        // detailed region are rejected up front rather than silently
        // reinterpreted.
        auto reject = [&](const std::string &why) {
            std::cerr << "mssr_run: " << why << "\n";
            usage(argv[0]);
        };
        if (spec.samplePeriod == 0 || spec.sampleWindow == 0)
            reject(sampleWindowsOutFile.empty()
                       ? std::string("--sample-period and --sample-window "
                                     "go together")
                       : std::string("--sample-windows-out requires "
                                     "--sample-period and --sample-window"));
        if (spec.sampleWindow > spec.samplePeriod)
            reject("--sample-window must be <= --sample-period");
        if (spec.fastForward != 0)
            reject("sampling fast-forwards to each window itself; drop "
                   "--fast-forward");
        if (traceOn)
            reject("per-window tracing is not supported; drop "
                   "--trace/--trace-out");
        if (!pipeviewOutFile.empty())
            reject("per-window pipeview recording is not supported; drop "
                   "--pipeview-out");
        if (!profileOutFile.empty())
            reject("per-window profiling is not supported; drop "
                   "--profile-out");
        if (spec.warmBpu)
            reject("sampled windows always warm the predictor from the "
                   "prefix; drop --warm-bpu");
        if (statsOutFile.ends_with(".prom"))
            reject("sampled stats are JSON-only; --stats-out cannot be "
                   "a .prom file");
    }
    if (spec.fastForward == 0 && spec.samplePeriod == 0 &&
        (!ckptDir.empty() || spec.warmBpu)) {
        std::cerr << "mssr_run: "
                  << (ckptDir.empty()
                          ? "--warm-bpu requires --fast-forward K"
                          : "--ckpt-dir requires --fast-forward K or "
                            "--sample-period N")
                  << "\n";
        usage(argv[0]);
    }

    // The output files must be distinct: the last writer would
    // silently clobber the other's content otherwise. The shared
    // helper covers every pair, --metrics-out/--log-out included.
    if (const auto dup = findDuplicateOutputPath({
            {"--trace-out", &traceOutFile},
            {"--pipeview-out", &pipeviewOutFile},
            {"--stats-out", &statsOutFile},
            {"--profile-out", &profileOutFile},
            {"--sample-windows-out", &sampleWindowsOutFile},
            {"--log-out", &logOutFile},
            {"--metrics-out", &metricsOutFile},
        })) {
        std::cerr << "mssr_run: " << dup->first << " and " << dup->second
                  << " point at the same file (the last writer would "
                     "clobber it)\n";
        return 2;
    }

    // One spec per program, named after its workload (or --asm file).
    std::vector<ServeJobSpec> specs;
    if (!asmFile.empty()) {
        specs.push_back(spec);
        specs.back().name = asmFile;
    }
    for (const std::string &name : workloadNames) {
        specs.push_back(spec);
        specs.back().name = specs.back().workload = name;
        if (const std::string why = validateJobSpec(specs.back());
            !why.empty()) {
            std::cerr << "mssr_run: " << why << "\n";
            return 2;
        }
    }

    if (!logOutFile.empty() && !Logger::global().openJsonl(logOutFile)) {
        std::cerr << "mssr_run: cannot open --log-out file '" << logOutFile
                  << "'\n";
        return 1;
    }

    // Build every program up front (programs must outlive the batch).
    // An --asm file is outside input, so an unreadable or unassemblable
    // one is a usage error, like a bad flag.
    std::vector<isa::Program> programs;
    if (!asmFile.empty()) {
        std::ifstream in(asmFile);
        if (!in) {
            std::cerr << "mssr_run: cannot open --asm file '" << asmFile
                      << "'\n";
            return 2;
        }
        std::ostringstream text;
        text << in.rdbuf();
        try {
            programs.push_back(isa::assembleProgram(text.str()));
        } catch (const SimFatal &e) {
            std::cerr << "mssr_run: cannot assemble '" << asmFile
                      << "': " << e.what() << "\n";
            return 2;
        }
    }

    try {
        // The --asm program, if any, is specs[0] and was built above.
        for (const ServeJobSpec &s : specs)
            if (!s.workload.empty())
                programs.push_back(
                    workloads::buildWorkload(s.workload, specScale(s)));

        // One job per program, plus its baseline when comparing. Each
        // job records into its own PipeView, so recording does not
        // force sequential execution.
        std::deque<PipeView> views; // stable addresses across push_back
        std::vector<BatchJob> jobs;
        const PipeView::Feeds feeds{.kanata = !pipeviewOutFile.empty(),
                                    .trace = traceOn};
        const Cycle viewEnd = viewCycles != 0
                                  ? viewStartCycle + viewCycles
                                  : ~Cycle(0);
        auto addJob = [&](const ServeJobSpec &s, const isa::Program *prog) {
            SimConfig job_cfg = specConfig(s);
            job_cfg.profiling = !profileOutFile.empty();
            if (feeds.kanata || feeds.trace) {
                views.emplace_back(feeds);
                views.back().setWindow(viewStartCycle, viewEnd);
                job_cfg.pipeview = &views.back();
            }
            jobs.push_back({s.name, prog, job_cfg, {}});
        };
        for (std::size_t i = 0; i < programs.size(); ++i) {
            addJob(specs[i], &programs[i]);
            if (compare) {
                // The baseline inherits every knob except the reuse
                // scheme and geometry, so the pair also shares one
                // warm-up prefix or sampling scan through the
                // BatchRunner cache.
                ServeJobSpec base = baselineJobSpec(specs[i]);
                base.name += "/baseline";
                addJob(base, &programs[i]);
            }
        }
        BatchRunner runner(jobsOverride);
        if (!ckptDir.empty()) {
            std::filesystem::create_directories(ckptDir);
            runner.setCheckpointDir(ckptDir);
        }
        runner.setProgressEvery(static_cast<double>(progressEvery));
        runner.setMetricsOut(metricsOutFile);
        runner.setProgressLabel("mssr_run");

        if (spec.samplePeriod != 0) {
            // Sampled mode: one functional scan per program drops
            // periodic checkpoints, the detailed windows fan out
            // across the pool, and the merge happens in window order
            // -- results are byte-identical at any --jobs count.
            const std::vector<SampledRunResult> sampled =
                runner.runSampled(jobs);
            if (!statsOutFile.empty()) {
                std::ofstream out(statsOutFile);
                if (!out)
                    fatal("cannot write stats file '", statsOutFile, "'");
                writeSampledStatsJson(out, jobs, sampled, statsHostTime);
                std::cerr << "stats: wrote " << sampled.size()
                          << " sampled run"
                          << (sampled.size() == 1 ? "" : "s") << " to "
                          << statsOutFile << " (json)\n";
            }
            if (!sampleWindowsOutFile.empty()) {
                std::ofstream out(sampleWindowsOutFile);
                if (!out)
                    fatal("cannot write window stats file '",
                          sampleWindowsOutFile, "'");
                writeSampledWindowsJson(out, jobs, sampled, statsHostTime);
                std::size_t windows = 0;
                for (const SampledRunResult &r : sampled)
                    windows += r.windowResults.size();
                std::cerr << "stats: wrote " << windows
                          << " window runs to " << sampleWindowsOutFile
                          << " (json)\n";
            }
            std::size_t point = 0;
            for (std::size_t i = 0; i < programs.size(); ++i) {
                if (programs.size() > 1)
                    std::cout << "== " << specs[i].name << " ==\n";
                const SampledRunResult &r = sampled[point++];
                printSampledSummary(spec.scheme, r);
                if (compare) {
                    const SampledRunResult &base = sampled[point++];
                    printSampledSummary("none", base);
                    std::cout << "IPC improvement: "
                              << analysis::percent(
                                     base.ipc > 0.0
                                         ? (r.ipc - base.ipc) / base.ipc
                                         : 0.0)
                              << "\n";
                }
                // --all-stats is a no-op here: the merged counter map
                // is intentionally empty (see writeSampledStatsJson).
            }
            return 0;
        }

        const std::vector<RunResult> results = runner.run(jobs);

        if (!statsOutFile.empty()) {
            std::ofstream out(statsOutFile);
            if (!out)
                fatal("cannot write stats file '", statsOutFile, "'");
            const bool prom = statsOutFile.ends_with(".prom");
            if (prom)
                writeStatsProm(out, jobs, results);
            else
                writeStatsJson(out, jobs, results, statsHostTime);
            std::cerr << "stats: wrote " << results.size() << " run"
                      << (results.size() == 1 ? "" : "s") << " to "
                      << statsOutFile << (prom ? " (prometheus)" : " (json)")
                      << "\n";
        }

        if (!profileOutFile.empty()) {
            std::ofstream out(profileOutFile);
            if (!out)
                fatal("cannot write profile file '", profileOutFile, "'");
            const bool folded = profileOutFile.ends_with(".folded");
            if (folded) {
                // Single-run files match the documented 3-frame line
                // format; multi-run files get a run-name root frame.
                for (std::size_t i = 0; i < results.size(); ++i)
                    writeFolded(out, results[i].profile,
                                results.size() > 1 ? jobs[i].name
                                                   : std::string());
            } else {
                writeProfileJson(out, jobs, results);
            }
            std::cerr << "profile: wrote " << results.size() << " run"
                      << (results.size() == 1 ? "" : "s") << " to "
                      << profileOutFile << (folded ? " (folded)" : " (json)")
                      << "\n";
        }

        if (traceOn) {
            std::vector<std::pair<std::string, const PipeView *>> streams;
            for (const BatchJob &job : jobs)
                streams.emplace_back(job.name, job.config.pipeview);
            if (!traceOutFile.empty()) {
                std::ofstream out(traceOutFile);
                if (!out)
                    fatal("cannot write trace file '", traceOutFile, "'");
                writeChromeJson(out, streams);
                std::uint64_t events = 0;
                for (const PipeView &v : views)
                    events += v.recorded() - v.dropped();
                std::cerr << "trace: wrote " << events << " events to "
                          << traceOutFile << "\n";
            } else {
                for (const auto &[name, view] : streams) {
                    std::cerr << "=== trace: " << name << " ===\n";
                    view->writeText(std::cerr);
                }
            }
        }

        if (!pipeviewOutFile.empty()) {
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                const std::string file = pipeviewJobFile(
                    pipeviewOutFile, i, jobs[i].name, jobs.size());
                std::ofstream out(file);
                if (!out)
                    fatal("cannot write pipeview file '", file, "'");
                const std::size_t rows = jobs[i].config.pipeview->writeKanata(
                    out, pipeviewMetaFields(jobs[i]));
                std::cerr << "pipeview: wrote " << rows
                          << " instruction record" << (rows == 1 ? "" : "s")
                          << " to " << file << "\n";
            }
        }

        std::size_t point = 0;
        for (std::size_t i = 0; i < programs.size(); ++i) {
            if (programs.size() > 1)
                std::cout << "== " << specs[i].name << " ==\n";
            const RunResult &r = results[point++];
            printSummary(spec.scheme, r);
            if (compare) {
                const RunResult &base = results[point++];
                printSummary("none", base);
                std::cout << "IPC improvement: "
                          << analysis::percent(r.ipcImprovementOver(base))
                          << "\n";
            }
            if (allStats)
                r.stats.dump(std::cout);
        }
        return 0;
    } catch (const SerializeError &e) {
        // Corrupt/stale/mismatched checkpoint file: an input-validation
        // failure with a clear diagnostic, same exit class as bad usage.
        std::cerr << "mssr_run: checkpoint error: " << e.what() << "\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
}
