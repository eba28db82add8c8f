/**
 * @file
 * qcarch — the one-binary driver for the experiment platform:
 * every paper artifact (and any scenario the facade can express)
 * is reproducible from a JSON file and this CLI.
 *
 *   qcarch run <config.json> [--out PATH]
 *       One qc::runExperiment call; prints the full Result JSON
 *       (stdout, or --out).
 *
 *   qcarch sweep <spec.json> [--threads N] [--out PATH] [--quiet]
 *                [--hoard DIR]
 *       Expand and execute a SweepSpec on the parallel sweep
 *       engine; writes the aggregated document (stdout, or --out).
 *       Output is bit-identical for a given spec regardless of
 *       --threads; progress goes to stderr. Every finished point
 *       is published to a result store (docs/HOARD.md): --hoard
 *       DIR (or the QCARCH_HOARD environment variable), else the
 *       private store PATH.hoard/ beside a file --out, which a
 *       successful run removes. Points already in the store are
 *       served from it, and the output stays byte-identical either
 *       way — so a killed or interrupted sweep resumes by running
 *       the same command again. SIGINT/SIGTERM drain the pool,
 *       write no document, and exit 3. Several copies of the same
 *       command sharing one --hoard DIR (on one host or over a
 *       shared filesystem) split the points between them through
 *       claims in the store, and each writes the same document
 *       (docs/SWEEPS.md). `--out /dev/null` only fills the store.
 *
 *   qcarch hoard stat|verify DIR
 *   qcarch hoard gc DIR [--max-bytes N] [--max-age-days D]
 *       Inspect, integrity-scan or evict from a hoard store.
 *       `verify` quarantines every invalid object and exits 1 if
 *       it found any. DIR must already hold a store (hoard.json);
 *       these commands never create one (exit 1).
 *
 *   qcarch list workloads|archs|runners
 *   qcarch list fields [runner]
 *       Discover the registries a config/spec may name.
 *
 * Fault injection (CI only): --fault SPEC, or the QCARCH_FAULT
 * environment variable, arms one deterministic fault (see
 * src/hoard/FaultInjector.hh). An injected crash exits 42.
 *
 * Exit codes: 0 success, 1 input error (message on stderr),
 * 2 usage, 3 interrupted by SIGINT/SIGTERM with every finished
 * point in a store, 42 injected fault fired.
 */

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/Qc.hh"
#include "common/DurableFile.hh"
#include "hoard/Hoard.hh"
#include "sweep/Sweep.hh"

namespace {

using namespace qc;

/** Exit code of a sweep drained by SIGINT/SIGTERM: every finished
 *  point is in its store. */
constexpr int kInterruptedExit = 3;

/** Set by the SIGINT/SIGTERM handler; every long-running command
 *  polls it through its stopRequested hook. */
volatile std::sig_atomic_t gStopRequested = 0;

void
onStopSignal(int)
{
    gStopRequested = 1;
}

void
installStopHandlers()
{
    std::signal(SIGINT, onStopSignal);
    std::signal(SIGTERM, onStopSignal);
}

bool
stopRequested()
{
    return gStopRequested != 0;
}

/**
 * A bad invocation (unknown command/flag, missing or malformed
 * option value, wrong positional count). main() reports it as one
 * line on stderr plus a one-line usage pointer and exits 2 —
 * distinct from exit 1, which is reserved for well-formed commands
 * whose *input* is bad (unreadable config, unknown runner, ...).
 */
class UsageError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

constexpr const char *kUsageLine =
    "usage: qcarch <run|sweep|hoard|list|help> ... "
    "(run \"qcarch help\" for details)";

int
usage(std::ostream &out, int code)
{
    out << "usage:\n"
           "  qcarch run <config.json> [--out PATH]\n"
           "  qcarch sweep <spec.json> [--threads N] [--out PATH]"
           " [--quiet] [--hoard DIR]\n"
           "  qcarch hoard stat|verify DIR\n"
           "  qcarch hoard gc DIR [--max-bytes N]"
           " [--max-age-days D]\n"
           "  qcarch list workloads|archs|runners\n"
           "  qcarch list fields [runner]\n"
           "\n"
           "sweep publishes every finished point to --hoard DIR, or"
           " else to PATH.hoard/\n"
           "beside a file --out (removed after a successful run):"
           " to resume an\n"
           "interrupted sweep, run the same command again. Copies"
           " of one sweep\n"
           "sharing --hoard DIR split its points between them.\n"
           "\n"
           "exit codes: 0 ok, 1 input error, 2 usage, 3 "
           "interrupted (finished points stored), 42 injected fault\n";
    return code;
}

/** Consume "--name value" from args; returns empty if absent. */
std::string
takeOption(std::vector<std::string> &args, const std::string &name)
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == name) {
            if (i + 1 >= args.size())
                throw UsageError(name + " needs a value");
            std::string value = args[i + 1];
            args.erase(args.begin() + static_cast<long>(i),
                       args.begin() + static_cast<long>(i) + 2);
            return value;
        }
    }
    return "";
}

/**
 * Called after a command has consumed every option it knows:
 * anything left that looks like a flag is a typo ("--thread 4"
 * must fail loudly, not silently run single-threaded with a stray
 * positional), and more/fewer positionals than expected is equally
 * a bad invocation.
 */
void
expectPositionals(const std::vector<std::string> &args,
                  std::size_t count, const std::string &what)
{
    for (const std::string &arg : args) {
        if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-')
            throw UsageError("unknown flag \"" + arg + "\" for "
                             + what);
    }
    if (args.size() != count) {
        throw UsageError(what + " expects "
                         + std::to_string(count) + " argument"
                         + (count == 1 ? "" : "s") + ", got "
                         + std::to_string(args.size()));
    }
}

/** Strictly parse an integer option value: the whole token must be
 *  a base-10 integer inside [min, max], or the invocation is bad. */
std::int64_t
parseIntOption(const std::string &name, const std::string &text,
               std::int64_t min, std::int64_t max)
{
    std::int64_t value = 0;
    std::size_t used = 0;
    try {
        value = std::stoll(text, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used != text.size() || text.empty())
        throw UsageError(name + " expects an integer, got \""
                         + text + "\"");
    if (value < min || value > max) {
        throw UsageError(name + " must be in ["
                         + std::to_string(min) + ", "
                         + std::to_string(max) + "], got " + text);
    }
    return value;
}

/** Strictly parse a non-negative, finite double option value. */
double
parseSecondsOption(const std::string &name, const std::string &text)
{
    double value = 0.0;
    std::size_t used = 0;
    try {
        value = std::stod(text, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used != text.size() || text.empty()
        || !(value >= 0.0 && value <= 1e12)) {
        throw UsageError(name + " expects a non-negative number, "
                         "got \"" + text + "\"");
    }
    return value;
}

bool
takeFlag(std::vector<std::string> &args, const std::string &name)
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == name) {
            args.erase(args.begin() + static_cast<long>(i));
            return true;
        }
    }
    return false;
}

/** --fault SPEC wins over QCARCH_FAULT; both parse strictly. */
FaultInjector
takeFault(std::vector<std::string> &args)
{
    const std::string spec = takeOption(args, "--fault");
    if (!spec.empty()) {
        try {
            return FaultInjector::parse(spec);
        } catch (const std::exception &e) {
            // A malformed flag value is a bad invocation (exit 2),
            // unlike a bad QCARCH_FAULT env var (exit 1: the
            // command line itself was fine).
            throw UsageError(std::string("--fault: ") + e.what());
        }
    }
    return FaultInjector::fromEnv();
}

/** --hoard DIR wins over QCARCH_HOARD; empty = no hoard. */
std::string
takeHoardDir(std::vector<std::string> &args)
{
    const std::string dir = takeOption(args, "--hoard");
    if (!dir.empty())
        return dir;
    const char *env = std::getenv("QCARCH_HOARD");
    return env ? env : "";
}

void
emit(const Json &doc, const std::string &out)
{
    if (out.empty())
        std::cout << doc.dump() << "\n";
    else
        doc.saveFile(out);
}

int
cmdRun(std::vector<std::string> args)
{
    const std::string out = takeOption(args, "--out");
    expectPositionals(args, 1, "qcarch run <config.json>");
    const ExperimentConfig config = ExperimentConfig::load(args[0]);
    emit(runExperiment(config).toJson(), out);
    return 0;
}

/** True for paths a durable write-then-rename may replace: a
 *  regular file or nothing yet — never a device, pipe or directory
 *  (`--out /dev/null`). */
bool
replaceablePath(const std::string &path)
{
    std::error_code ec;
    const std::filesystem::file_status status =
        std::filesystem::symlink_status(path, ec);
    return !std::filesystem::exists(status)
           || std::filesystem::is_regular_file(status);
}

int
cmdSweep(std::vector<std::string> args)
{
    const std::string out = takeOption(args, "--out");
    const std::string threads = takeOption(args, "--threads");
    std::string hoardDir = takeHoardDir(args);
    const FaultInjector fault = takeFault(args);
    const bool quiet = takeFlag(args, "--quiet");
    expectPositionals(args, 1, "qcarch sweep <spec.json>");

    // Validate every option value before touching the filesystem:
    // a bad invocation must exit 2 even when the spec file is also
    // missing.
    SweepOptions options;
    if (!threads.empty())
        options.threads = static_cast<int>(
            parseIntOption("--threads", threads, 0, 1 << 16));

    const SweepSpec spec = SweepSpec::load(args[0]);
    // The store is the checkpoint: --hoard DIR when given, else a
    // private store beside a file --out (stdout and devices get
    // none). Re-running the same command after a crash or a drain
    // computes only the points the store lacks.
    const bool fileOut = !out.empty() && replaceablePath(out);
    const bool privateStore = hoardDir.empty() && fileOut;
    if (privateStore) {
        hoardDir = out + ".hoard";
        std::error_code ec;
        if (std::filesystem::exists(hoardDir, ec)
            && !std::filesystem::exists(hoardDir + "/hoard.json",
                                        ec)) {
            throw std::invalid_argument(
                hoardDir + " exists but is not a hoard store (no "
                           "hoard.json); move it aside or pass "
                           "--hoard DIR");
        }
    }
    std::optional<HoardStore> hoard;
    if (!hoardDir.empty()) {
        hoard.emplace(hoardDir, fault);
        options.hoard = &*hoard;
    }
    options.stopRequested = stopRequested;

    // Progress doubles as the fault hook: crash-at-point=K fires
    // after the K-th executed point is finished — and, because the
    // engine publishes before it ticks progress, after that point
    // is in the store.
    std::size_t executedSoFar = 0;
    options.progress = [&](const SweepProgress &p) {
        if (!p.cached && !p.hoarded) {
            ++executedSoFar;
            fault.fireAtPoint(executedSoFar);
        }
        if (quiet)
            return;
        // \x1b[K erases the tail of the previous (possibly
        // longer) progress line after the carriage return.
        std::cerr << "\r[" << p.done << "/" << p.total << "] "
                  << p.point->assignment.dump(0)
                  << (p.cached    ? " (cached)"
                      : p.hoarded ? " (hoard)"
                                  : "")
                  << "\x1b[K" << (p.done == p.total ? "\n" : "")
                  << std::flush;
    };

    installStopHandlers();
    const SweepReport report = runSweep(spec, options);
    if (report.interrupted == 0) {
        // A temp name unique to this process: copies of one sweep
        // may finish together onto the same --out.
        if (fileOut)
            writeFileDurable(out, report.doc.dump(2) + "\n",
                             ".tmp-" + Lease::makeNonce());
        else
            emit(report.doc, out);
    }
    if (!quiet) {
        std::cerr << report.points << " points ("
                  << report.executed << " executed, "
                  << report.cacheHits << " cached, "
                  << report.failed << " failed) in "
                  << report.wallSeconds << " s\n";
        if (hoard) {
            std::cerr << "hoard: " << report.hoardHits
                      << " hit(s), " << report.hoardStored
                      << " stored, " << report.claimsTakenOver
                      << " taken over (" << hoardDir << ")\n";
        }
    }
    if (report.hoardFailed > 0) {
        std::cerr << "hoard: " << report.hoardFailed
                  << " point(s) not stored (" << report.hoardError
                  << "); they are in the document but were not "
                     "crash-durable\n";
    }
    if (report.interrupted > 0) {
        std::cerr << "interrupted: " << report.interrupted
                  << " point(s) pending";
        if (hoard)
            std::cerr << "; run the same command again to finish "
                         "from "
                      << hoardDir;
        std::cerr << "\n";
        return kInterruptedExit;
    }
    if (report.failed > 0)
        return 1;
    // A finished run needs no checkpoint: the document is durable.
    if (privateStore) {
        std::error_code ec;
        std::filesystem::remove_all(hoardDir, ec);
    }
    return 0;
}

int
cmdHoard(std::vector<std::string> args)
{
    if (args.empty())
        throw UsageError(
            "qcarch hoard needs a subcommand: "
            "stat, verify, gc");
    const std::string what = args[0];
    args.erase(args.begin());
    if (what != "stat" && what != "verify" && what != "gc")
        throw UsageError("unknown hoard subcommand \"" + what
                         + "\"; expected stat, verify, gc");

    // Parse every option before touching DIR, and never create a
    // store here: inspecting a mistyped DIR must fail, not leave an
    // empty store behind.
    std::uint64_t maxBytes = 0;
    double maxAgeDays = 0.0;
    if (what == "gc") {
        const std::string bytes = takeOption(args, "--max-bytes");
        const std::string days = takeOption(args, "--max-age-days");
        if (!bytes.empty())
            maxBytes = static_cast<std::uint64_t>(parseIntOption(
                "--max-bytes", bytes, 0, std::int64_t(1) << 62));
        if (!days.empty())
            maxAgeDays = parseSecondsOption("--max-age-days", days);
    }
    expectPositionals(args, 1, "qcarch hoard " + what + " DIR");
    const std::string &dir = args[0];
    std::error_code ec;
    if (!std::filesystem::exists(dir + "/hoard.json", ec))
        throw std::runtime_error(dir + " is not a hoard store (no "
                                       "hoard.json)");
    HoardStore hoard(dir);

    if (what == "gc") {
        const HoardGcReport report = hoard.gc(maxBytes, maxAgeDays);
        std::cerr << "hoard: kept " << report.kept << " ("
                  << report.keptBytes << " bytes), evicted "
                  << report.evicted << " (" << report.evictedBytes
                  << " bytes), swept " << report.tempsRemoved
                  << " temp(s)\n";
        return 0;
    }
    if (what == "stat") {
        std::cout << hoard.stat().dump() << "\n";
        return 0;
    }
    const HoardVerifyReport report = hoard.verify();
    std::cerr << "hoard: " << report.objects << " object(s), "
              << report.ok << " ok, " << report.quarantined
              << " quarantined\n";
    return report.quarantined == 0 ? 0 : 1;
}

int
cmdList(std::vector<std::string> args)
{
    if (args.empty())
        throw UsageError("qcarch list needs a subcommand: "
                         "workloads, archs, runners, fields");
    const std::string what = args[0];
    for (const std::string &arg : args) {
        if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-')
            throw UsageError("unknown flag \"" + arg
                             + "\" for qcarch list");
    }
    if (args.size() > (what == "fields" ? 2u : 1u))
        throw UsageError("too many arguments for qcarch list "
                         + what);
    if (what == "workloads") {
        WorkloadRegistry &registry = WorkloadRegistry::instance();
        for (const std::string &name : registry.names()) {
            std::cout << name << "  " << registry.description(name)
                      << "\n";
        }
        return 0;
    }
    if (what == "archs") {
        ArchRegistry &registry = ArchRegistry::instance();
        for (const std::string &key : registry.keys()) {
            std::cout << key << "  " << registry.get(key).name()
                      << "\n";
        }
        return 0;
    }
    if (what == "runners") {
        SweepRunnerRegistry &registry =
            SweepRunnerRegistry::instance();
        for (const std::string &key : registry.keys()) {
            std::cout << key << "  "
                      << registry.get(key).description() << "\n";
        }
        return 0;
    }
    if (what == "fields") {
        const std::string runner =
            args.size() > 1 ? args[1] : "experiment";
        for (const std::string &field :
             SweepRunnerRegistry::instance().get(runner).fields())
            std::cout << field << "\n";
        return 0;
    }
    throw UsageError("unknown list subcommand \"" + what
                     + "\"; expected workloads, archs, runners, "
                       "fields");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "qcarch: missing command\n"
                  << kUsageLine << "\n";
        return 2;
    }
    const std::string command = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    try {
        if (command == "run")
            return cmdRun(std::move(args));
        if (command == "sweep")
            return cmdSweep(std::move(args));
        if (command == "hoard")
            return cmdHoard(std::move(args));
        if (command == "list")
            return cmdList(std::move(args));
        if (command == "--help" || command == "help")
            return usage(std::cout, 0);
        throw UsageError("unknown command \"" + command + "\"");
    } catch (const UsageError &e) {
        std::cerr << "qcarch: " << e.what() << "\n"
                  << kUsageLine << "\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "qcarch " << command << ": " << e.what()
                  << "\n";
        return 1;
    }
}
