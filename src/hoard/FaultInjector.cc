#include "hoard/FaultInjector.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include <unistd.h>

namespace qc {

namespace {

bool
needsParam(const std::string &kind)
{
    return kind == "slow-point" || kind == "crash-at-point";
}

bool
knownKind(const std::string &kind)
{
    return kind == "stale-heartbeat"
           || kind == "crash-before-hoard-publish"
           || kind == "crash-after-hoard-publish"
           || needsParam(kind);
}

} // namespace

const char *
FaultInjector::validSpecs()
{
    return "stale-heartbeat, crash-before-hoard-publish, "
           "crash-after-hoard-publish, slow-point=MS, "
           "crash-at-point=K";
}

FaultInjector
FaultInjector::parse(const std::string &spec)
{
    FaultInjector fault;
    if (spec.empty())
        return fault;
    const std::size_t eq = spec.find('=');
    const std::string kind = spec.substr(0, eq);
    if (!knownKind(kind)) {
        throw std::invalid_argument("unknown fault \"" + spec
                                    + "\" (valid: "
                                    + validSpecs() + ")");
    }
    if (needsParam(kind) != (eq != std::string::npos)) {
        throw std::invalid_argument(
            "fault \"" + spec + "\" "
            + (needsParam(kind) ? "needs" : "does not take")
            + " a =VALUE parameter (valid: " + validSpecs() + ")");
    }
    fault.kind_ = kind;
    if (eq != std::string::npos) {
        try {
            fault.param_ = std::stol(spec.substr(eq + 1));
        } catch (const std::exception &) {
            throw std::invalid_argument(
                "fault \"" + spec
                + "\" has a non-numeric parameter (valid: "
                + validSpecs() + ")");
        }
        if (fault.param_ < 0) {
            throw std::invalid_argument(
                "fault \"" + spec
                + "\" has a negative parameter (valid: "
                + validSpecs() + ")");
        }
    }
    return fault;
}

FaultInjector
FaultInjector::fromEnv()
{
    const char *spec = std::getenv("QCARCH_FAULT");
    return parse(spec ? spec : "");
}

void
FaultInjector::fire(const std::string &kind) const
{
    if (kind_ != kind)
        return;
    std::fprintf(stderr, "[fault] %s: injected crash (pid %d)\n",
                 kind_.c_str(), static_cast<int>(::getpid()));
    std::fflush(stderr);
    // _exit, not exit: an injected crash must look like a kill —
    // no atexit handlers, no stream flushing, no stack unwinding.
    ::_exit(kExitCode);
}

void
FaultInjector::fireAtPoint(std::size_t pointsDone) const
{
    if (is("crash-at-point")
        && pointsDone == static_cast<std::size_t>(param_))
        fire("crash-at-point");
}

void
FaultInjector::maybeSleep() const
{
    if (is("slow-point")) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(param_));
    }
}

} // namespace qc
