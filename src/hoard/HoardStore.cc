#include "hoard/HoardStore.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include <unistd.h>

#include "common/Clock.hh"
#include "common/DurableFile.hh"
#include "hoard/HoardKey.hh"
#include "sweep/SweepPlan.hh"

namespace qc {

namespace fs = std::filesystem;

namespace {

std::string
hexDigest(const Json &result)
{
    return hexConfigHash(result.hash());
}

bool
isObjectName(const std::string &name)
{
    // Publish temps (".json.tmp-<nonce>") and anything else a
    // crash leaves behind must stay invisible to readers.
    return name.size() > 5
           && name.compare(name.size() - 5, 5, ".json") == 0;
}

/** Regular files under objects/, sorted by path for determinism:
 *  the objects themselves, or (objects == false) the leftover
 *  publish temps. */
std::vector<std::string>
objectFiles(const std::string &objectsDir, bool objects = true)
{
    std::vector<std::string> paths;
    std::error_code ec;
    for (fs::recursive_directory_iterator
             it(objectsDir, ec),
         end;
         !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file(ec)
            && isObjectName(it->path().filename().string()) == objects)
            paths.push_back(it->path().string());
    }
    std::sort(paths.begin(), paths.end());
    return paths;
}

std::uint64_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    const std::uintmax_t size = fs::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(size);
}

} // namespace

HoardStore::HoardStore(std::string root, FaultInjector fault)
    : root_(std::move(root)), fault_(std::move(fault)),
      nonce_(Lease::makeNonce())
{
    fs::create_directories(root_ + "/objects");
    fs::create_directories(root_ + "/quarantine");
    fs::create_directories(root_ + "/claims");
    const std::string marker = root_ + "/hoard.json";
    if (fs::exists(marker)) {
        const Json meta = Json::loadFile(marker);
        const std::int64_t version =
            meta.getInt("hoard_version", -1);
        if (version != kStoreVersion) {
            throw std::invalid_argument(
                "hoard store " + root_ + " has hoard_version "
                + std::to_string(version) + "; this build reads "
                + std::to_string(kStoreVersion));
        }
        return;
    }
    Json meta = Json::object();
    meta.set("hoard_version", kStoreVersion);
    writeFileDurable(marker, meta.dump(2) + "\n",
                     ".tmp-" + nonce_);
}

HoardStore::~HoardStore()
{
    std::thread heartbeat;
    std::map<std::string, LeaseInfo> held;
    {
        MutexLock lock(claimMutex_);
        closing_ = true;
        heartbeat.swap(heartbeat_);
        held.swap(claims_);
    }
    wake_.notify_all();
    if (heartbeat.joinable())
        heartbeat.join();
    for (const auto &[path, lease] : held)
        Lease::release(path, lease.nonce);
}

std::string
HoardStore::keyFor(const std::string &runner, const Json &config)
{
    return hoardKeyHash(runner, config);
}

std::string
HoardStore::objectPath(const std::string &key) const
{
    return root_ + "/objects/" + key.substr(0, 2) + "/" + key
           + ".json";
}

std::string
HoardStore::claimPath(const std::string &key) const
{
    return root_ + "/claims/" + key + ".lease";
}

bool
HoardStore::validateObject(const Json &object,
                           const std::string &key,
                           std::string &why) const
{
    if (!object.isObject()) {
        why = "not a JSON object";
        return false;
    }
    if (object.getInt("store_version", -1) != kStoreVersion) {
        why = "wrong store_version";
        return false;
    }
    if (object.getString("key", "") != key) {
        why = "key does not match object name";
        return false;
    }
    // Objects are on-disk artifacts anyone can edit; every field
    // read goes through find() so a malformed object quarantines
    // instead of throwing out of the fetch path.
    const Json *result = object.find("result");
    const Json *keyConfig = object.find("key_config");
    const Json *runner = object.find("runner");
    if (!result || !keyConfig || !runner || !runner->isString()) {
        why = "missing field";
        return false;
    }
    if (object.getString("digest", "") != hexDigest(*result)) {
        why = "digest mismatch";
        return false;
    }
    if (result->isObject() && result->has("error")) {
        why = "cached error result";
        return false;
    }
    // The name must be the hash of the stored identity — catches
    // an object renamed (or hand-copied) onto the wrong key.
    if (hoardObjectKey(runner->asString(), *keyConfig) != key) {
        why = "key_config does not hash to the key";
        return false;
    }
    return true;
}

void
HoardStore::quarantineObject(const std::string &path)
{
    const std::string target = root_ + "/quarantine/"
                               + fs::path(path).filename().string()
                               + "." + nonce_;
    std::error_code ec;
    fs::rename(path, target, ec);
    if (ec)
        fs::remove(path, ec); // cross-device fallback: drop it
}

bool
HoardStore::fetch(const std::string &runner, const Json &config,
                  Json &result)
{
    const std::string key = hoardKeyHash(runner, config);
    const std::string path = objectPath(key);
    std::error_code ec;
    if (!fs::exists(path, ec) || ec)
        return false;
    Json object;
    std::string why;
    bool valid = false;
    try {
        object = Json::loadFile(path);
        valid = validateObject(object, key, why);
        // The full-identity guard: a 64-bit collision between two
        // distinct key configs must read as a miss, never a hit.
        const Json *keyConfig = object.find("key_config");
        if (valid
            && (object.getString("runner", "") != runner
                || !keyConfig
                || *keyConfig != hoardKeyConfig(runner, config))) {
            valid = false;
            why = "key_config mismatch";
        }
    } catch (const std::exception &e) {
        valid = false;
        why = e.what();
    }
    if (!valid) {
        quarantineObject(path);
        return false;
    }
    result = *object.find("result");
    return true;
}

bool
HoardStore::store(const std::string &runner, const Json &config,
                  const Json &result)
{
    // Error results always re-run: a transient failure must not
    // poison the persistent store.
    if (result.isObject() && result.has("error"))
        return false;
    const std::string key = hoardKeyHash(runner, config);
    const std::string path = objectPath(key);
    std::error_code ec;
    if (fs::exists(path, ec) && !ec) {
        // Idempotent duplicate publish: the existing object's
        // content is identical by construction (same key → same
        // key config → same deterministic result), so first wins.
        return false;
    }
    Json object = Json::object();
    object.set("digest", hexDigest(result));
    object.set("key", key);
    object.set("key_config", hoardKeyConfig(runner, config));
    object.set("result", result);
    object.set("runner", runner);
    object.set("store_version", kStoreVersion);
    object.set("stored_ms", wallClockEpochMs());
    const std::string body = object.dump(2) + "\n";
    fs::create_directories(fs::path(path).parent_path());
    if (fault_.is("crash-before-hoard-publish")) {
        // Model a crash with the temp durably on disk but never
        // renamed: the object must stay invisible to every reader.
        writeFileDurable(path + ".partial-" + nonce_, body,
                         ".tmp-" + nonce_);
        fault_.fire("crash-before-hoard-publish");
    }
    writeFileDurable(path, body, ".tmp-" + nonce_);
    fault_.fire("crash-after-hoard-publish");
    return true;
}

ResultCache::Claim
HoardStore::claim(const std::string &runner, const Json &config)
{
    const std::string path = claimPath(hoardKeyHash(runner, config));
    LeaseInfo mine;
    mine.host = Lease::hostName();
    mine.pid = static_cast<int>(::getpid());
    mine.nonce = nonce_;
    mine.ttlSeconds = kClaimSeconds;
    Claim outcome = Claim::Won;
    try {
        if (!Lease::tryAcquire(path, mine)) {
            LeaseInfo holder;
            if (!Lease::read(path, holder))
                holder = LeaseInfo(); // damaged: stale
            else if (!holder.expired(nowEpochMs())
                     && holder.ownerAlive())
                return Claim::Held;
            // Dead, expired or damaged: take it over. Losing either
            // race means another process took it first.
            if (!Lease::steal(path, holder)
                || !Lease::tryAcquire(path, mine))
                return Claim::Held;
            outcome = Claim::TakenOver;
        }
    } catch (const std::exception &) {
        // A claim only saves work: without a writable claims
        // directory the point is computed unclaimed.
        return Claim::Won;
    }
    bool stale = false;
    if (fault_.is("stale-heartbeat")) {
        MutexLock lock(claimMutex_);
        stale = !std::exchange(staleFired_, true);
    }
    if (stale)
        stallStale(path, mine);
    else
        hold(path, mine);
    fault_.maybeSleep();
    return outcome;
}

void
HoardStore::release(const std::string &runner, const Json &config)
{
    const std::string path = claimPath(hoardKeyHash(runner, config));
    {
        MutexLock lock(claimMutex_);
        claims_.erase(path);
    }
    Lease::release(path, nonce_);
}

void
HoardStore::hold(const std::string &path, const LeaseInfo &lease)
{
    MutexLock lock(claimMutex_);
    claims_[path] = lease;
    if (!heartbeat_.joinable())
        heartbeat_ = std::thread([this] { heartbeat(); });
}

void
HoardStore::stallStale(const std::string &path, LeaseInfo mine) const
{
    // The stale-heartbeat fault: rewrite the claim to expire in
    // about a second, never renew it, and stall past the expiry
    // until another process has taken it over (or ten seconds
    // pass), so a live holder's claim goes stale.
    mine.ttlSeconds = 1.0;
    Lease::renew(path, mine);
    const auto giveUp =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    LeaseInfo current;
    while (std::chrono::steady_clock::now() < giveUp
           && Lease::read(path, current) && current.nonce == nonce_)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

void
HoardStore::heartbeat()
{
    const auto every = std::chrono::milliseconds(
        static_cast<long>(kClaimSeconds * 1000.0 / 3.0));
    MutexLock lock(claimMutex_);
    auto next = std::chrono::steady_clock::now() + every;
    while (!closing_) {
        // Woken early only to close (or spuriously).
        if (wake_.wait_until(claimMutex_, next)
            != std::cv_status::timeout)
            continue;
        // A claim that fails to renew was taken over: stop
        // renewing it; its point costs one duplicate at most.
        for (auto it = claims_.begin(); it != claims_.end();)
            it = Lease::renew(it->first, it->second)
                     ? std::next(it)
                     : claims_.erase(it);
        next = std::chrono::steady_clock::now() + every;
    }
}

std::vector<HoardObjectInfo>
HoardStore::list() const
{
    std::vector<HoardObjectInfo> infos;
    for (const std::string &path : objectFiles(root_ + "/objects")) {
        HoardObjectInfo info;
        info.path = path;
        info.key = fs::path(path).stem().string();
        info.bytes = fileBytes(path);
        try {
            const Json object = Json::loadFile(path);
            info.runner = object.getString("runner", "");
            info.storedMs = object.getInt("stored_ms", 0);
        } catch (const std::exception &) {
            // Unreadable: storedMs 0 sorts it oldest, so gc evicts
            // it first; verify() will quarantine it.
        }
        infos.push_back(std::move(info));
    }
    return infos;
}

HoardVerifyReport
HoardStore::verify()
{
    HoardVerifyReport report;
    for (const std::string &path : objectFiles(root_ + "/objects")) {
        ++report.objects;
        bool valid = false;
        std::string why;
        try {
            valid = validateObject(Json::loadFile(path),
                                   fs::path(path).stem().string(),
                                   why);
        } catch (const std::exception &) {
        }
        if (!valid) {
            quarantineObject(path);
            ++report.quarantined;
            continue;
        }
        ++report.ok;
    }
    return report;
}

HoardGcReport
HoardStore::gc(std::uint64_t maxBytes, double maxAgeDays)
{
    HoardGcReport report;
    for (const std::string &temp :
         objectFiles(root_ + "/objects", /*objects=*/false)) {
        std::error_code ec;
        if (fs::remove(temp, ec) && !ec)
            ++report.tempsRemoved;
    }
    std::vector<HoardObjectInfo> infos = list();
    // Oldest publish first; key breaks ties deterministically.
    std::sort(infos.begin(), infos.end(),
              [](const HoardObjectInfo &a,
                 const HoardObjectInfo &b) {
                  return a.storedMs != b.storedMs
                             ? a.storedMs < b.storedMs
                             : a.key < b.key;
              });
    std::uint64_t totalBytes = 0;
    for (const HoardObjectInfo &info : infos)
        totalBytes += info.bytes;
    const std::int64_t cutoffMs =
        maxAgeDays > 0
            ? wallClockEpochMs()
                  - static_cast<std::int64_t>(maxAgeDays
                                              * 86400.0 * 1000.0)
            : 0;
    for (const HoardObjectInfo &info : infos) {
        const bool tooOld = maxAgeDays > 0
                            && info.storedMs < cutoffMs;
        const bool overBudget = maxBytes > 0
                                && totalBytes > maxBytes;
        if (tooOld || overBudget) {
            std::error_code ec;
            fs::remove(info.path, ec);
            ++report.evicted;
            report.evictedBytes += info.bytes;
            totalBytes -= info.bytes;
            continue;
        }
        ++report.kept;
        report.keptBytes += info.bytes;
    }
    return report;
}

Json
HoardStore::stat() const
{
    const std::vector<HoardObjectInfo> infos = list();
    std::uint64_t totalBytes = 0;
    Json runners = Json::object();
    for (const HoardObjectInfo &info : infos) {
        totalBytes += info.bytes;
        const std::string name =
            info.runner.empty() ? "(unreadable)" : info.runner;
        runners.set(name, runners.getInt(name, 0) + 1);
    }
    std::size_t quarantined = 0;
    std::error_code ec;
    for (fs::directory_iterator it(root_ + "/quarantine", ec), end;
         !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file(ec))
            ++quarantined;
    }
    Json out = Json::object();
    out.set("bytes", totalBytes);
    out.set("hoard_version", kStoreVersion);
    out.set("objects", static_cast<std::int64_t>(infos.size()));
    out.set("quarantined_files",
            static_cast<std::int64_t>(quarantined));
    out.set("runners", std::move(runners));
    return out;
}

} // namespace qc
