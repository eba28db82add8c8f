#include "hoard/Lease.hh"

#include <atomic>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include "api/Json.hh"
#include "common/Clock.hh"
#include "common/DurableFile.hh"

namespace qc {

namespace {

Json
toJson(const LeaseInfo &info)
{
    Json j = Json::object();
    j.set("expires_ms", info.expiresMs);
    j.set("host", info.host);
    j.set("nonce", info.nonce);
    j.set("pid", info.pid);
    j.set("ttl_seconds", info.ttlSeconds);
    return j;
}

bool
fromJson(const Json &j, LeaseInfo &out)
{
    // Lease files are written by other processes; treat them as
    // untrusted and read every field through bounds-checked
    // accessors so a corrupt file reads as "no valid lease".
    const Json *pid = j.find("pid");
    const Json *nonce = j.find("nonce");
    const Json *expires = j.find("expires_ms");
    std::size_t pidValue = 0;
    if (!pid || !nonce || !expires || !nonce->isString()
        || !pid->asIndex(pidValue)
        || pidValue > static_cast<std::size_t>(INT_MAX))
        return false;
    std::size_t expiresValue = 0;
    if (!expires->asIndex(expiresValue))
        return false;
    out.host.clear();
    if (const Json *host = j.find("host")) {
        if (!host->isString())
            return false;
        out.host = host->asString();
    }
    out.pid = static_cast<int>(pidValue);
    out.nonce = nonce->asString();
    out.expiresMs = static_cast<std::int64_t>(expiresValue);
    out.ttlSeconds = 0.0;
    if (const Json *ttl = j.find("ttl_seconds")) {
        if (!ttl->isNumber())
            return false;
        out.ttlSeconds = ttl->asDouble();
    }
    return true;
}

/** Write `body` to a fresh `path` (no fsync: a lease that a power
 *  loss rolls back only costs a duplicate computation). */
void
writeNew(const std::string &path, const std::string &body)
{
    const int fd =
        ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
    if (fd < 0) {
        throw std::runtime_error("cannot create lease " + path
                                 + ": " + std::strerror(errno));
    }
    const char *data = body.data();
    std::size_t left = body.size();
    while (left > 0) {
        const ssize_t n = ::write(fd, data, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            const int error = errno;
            ::close(fd);
            std::remove(path.c_str());
            throw std::runtime_error("cannot write lease " + path
                                     + ": " + std::strerror(error));
        }
        data += n;
        left -= static_cast<std::size_t>(n);
    }
    ::close(fd);
}

} // namespace

std::int64_t
nowEpochMs()
{
    // Routed through the injectable clock seam so lease-expiry
    // tests step a FakeWallClock instead of sleeping out TTLs.
    return wallClockEpochMs();
}

bool
LeaseInfo::ownerAlive() const
{
    // A pid is only meaningful on the host that wrote it; a lease
    // from anywhere else (or from nowhere we can name) waits out
    // its expiry.
    if (pid <= 0 || host != Lease::hostName())
        return true;
    if (::kill(pid, 0) == 0)
        return true;
    return errno != ESRCH;
}

bool
Lease::tryAcquire(const std::string &path, LeaseInfo info)
{
    info.expiresMs =
        nowEpochMs()
        + static_cast<std::int64_t>(info.ttlSeconds * 1000.0);
    // Write the whole lease under a private name, then link it into
    // place: link() fails with EEXIST when the name is taken, so
    // exactly one acquirer wins, and a reader sees either no lease
    // or a complete one.
    const std::string temp = path + ".new-" + makeNonce();
    writeNew(temp, toJson(info).dump(0) + "\n");
    const int linked = ::link(temp.c_str(), path.c_str());
    const int error = errno;
    std::remove(temp.c_str());
    if (linked == 0)
        return true;
    if (error == EEXIST)
        return false;
    throw std::runtime_error("cannot create lease " + path + ": "
                             + std::strerror(error));
}

bool
Lease::read(const std::string &path, LeaseInfo &out)
{
    try {
        return fromJson(Json::loadFile(path), out);
    } catch (const std::exception &) {
        return false;
    }
}

bool
Lease::renew(const std::string &path, const LeaseInfo &mine)
{
    LeaseInfo current;
    if (!read(path, current) || current.nonce != mine.nonce)
        return false;
    LeaseInfo renewed = mine;
    renewed.expiresMs =
        nowEpochMs()
        + static_cast<std::int64_t>(mine.ttlSeconds * 1000.0);
    // Atomic replace; the pre-write nonce check above keeps a
    // taken-over lease from being clobbered (the remaining
    // instant-race costs at most a duplicate computation — see the
    // file comment).
    try {
        writeFileDurable(path, toJson(renewed).dump(0) + "\n",
                         ".renew." + mine.nonce);
    } catch (const std::exception &) {
        return false;
    }
    return true;
}

bool
Lease::release(const std::string &path, const std::string &nonce)
{
    LeaseInfo current;
    if (!read(path, current) || current.nonce != nonce)
        return false;
    return std::remove(path.c_str()) == 0;
}

bool
Lease::steal(const std::string &path, const LeaseInfo &stale)
{
    const std::string aside = path + ".stale-" + makeNonce();
    if (std::rename(path.c_str(), aside.c_str()) != 0)
        return false; // someone else already took it
    LeaseInfo moved;
    const bool same = read(aside, moved)
                          ? moved.nonce == stale.nonce
                                && moved.expiresMs == stale.expiresMs
                          : stale.nonce.empty();
    // Moved a live lease (another taker won and re-acquired after
    // our read): put it back unless the name was taken again.
    if (!same)
        ::link(aside.c_str(), path.c_str());
    std::remove(aside.c_str());
    return same;
}

const std::string &
Lease::hostName()
{
    static const std::string name = [] {
        char buffer[256] = {};
        if (::gethostname(buffer, sizeof buffer - 1) != 0)
            return std::string("localhost");
        // Nonces built from it name temp files: keep it to
        // filename-safe characters.
        std::string host(buffer);
        for (char &c : host) {
            const bool safe = (c >= 'a' && c <= 'z')
                              || (c >= 'A' && c <= 'Z')
                              || (c >= '0' && c <= '9') || c == '.'
                              || c == '-' || c == '_';
            if (!safe)
                c = '_';
        }
        return host;
    }();
    return name;
}

std::string
Lease::makeNonce()
{
    static std::atomic<unsigned> counter{0};
    return hostName() + "-"
           + std::to_string(static_cast<int>(::getpid())) + "-"
           + std::to_string(nowEpochMs()) + "-"
           + std::to_string(counter.fetch_add(1));
}

} // namespace qc
