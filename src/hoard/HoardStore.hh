/**
 * @file
 * The hoard cache: a versioned on-disk content-addressed store of
 * computed sweep results, in the spirit of OpenISR's parcelkeeper
 * chunk store — every point computed in any session is stored once
 * under its canonical config key and reused by any later sweep.
 *
 * Layout under the store root:
 *
 *     ROOT/hoard.json          {"hoard_version": 1}; written first,
 *                              validated on every open
 *     ROOT/objects/<hh>/<key>.json
 *                              one immutable object per key
 *                              (<hh> = first two hex digits);
 *                              published with writeFileDurable, so
 *                              a reader never sees a torn object
 *     ROOT/quarantine/         objects that failed validation,
 *                              moved aside (never deleted) for
 *                              post-mortem
 *     ROOT/claims/<key>.lease  a process computing <key> right now
 *                              (Lease.hh; same key as the object
 *                              it protects); never an object —
 *                              list/stat/verify/gc read objects/
 *                              only
 *
 * Each object is a JSON document:
 *
 *     {
 *       "digest": "<16-hex Json::hash of the result>",
 *       "key": "<its own store key>",
 *       "key_config": { ...hoardKeyConfig(runner, config)... },
 *       "result": { ...runner metrics, verbatim... },
 *       "runner": "<runner key>",
 *       "store_version": 1,
 *       "stored_ms": <wall-clock publish stamp, for eviction>
 *     }
 *
 * Integrity model: fetch() re-derives the key from the request,
 * validates store_version, runner, the digest over the result
 * bytes, and the full key_config equality (so a 64-bit hash
 * collision cannot serve a wrong result — the same guard the sweep
 * memo uses). Anything invalid — torn, bit-flipped, wrong version,
 * hand-edited — is moved to quarantine/ and reported as a miss, so
 * the point transparently recomputes and the republished object
 * heals the store.
 *
 * Concurrency model: publishes go through a durable
 * write-then-rename commit with a process-unique temp suffix
 * (Lease::makeNonce), so concurrent sweeps sharing a store never
 * tear an object; duplicate publishes of the same key are
 * idempotent (first one wins, the content is identical by
 * construction). Scans only ever consider "*.json" names, so a
 * crashed publish's leftover temp is invisible until gc() sweeps
 * it.
 *
 * Claims are how several processes split one sweep, as OpenISR lets
 * one client at a time hold a parcel: claim() takes a lease on the
 * point's key, a heartbeat thread renews every claim this store
 * holds, and release() drops it once the result is published. A
 * claim whose holder died (same host) or stopped renewing past its
 * expiry is taken over. Correctness never depends on a claim — a
 * point is done exactly when its object is valid — so a lost,
 * stolen or damaged claim costs one duplicate computation at most.
 */

#ifndef QC_HOARD_HOARD_STORE_HH
#define QC_HOARD_HOARD_STORE_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "api/Json.hh"
#include "common/Mutex.hh"
#include "hoard/FaultInjector.hh"
#include "hoard/Lease.hh"
#include "sweep/ResultCache.hh"

namespace qc {

/** One stored object, as listed by list(). */
struct HoardObjectInfo
{
    std::string key;       ///< 16-hex store key
    std::string path;      ///< absolute object path
    std::string runner;    ///< owning runner ("" if unreadable)
    std::uint64_t bytes = 0;
    std::int64_t storedMs = 0; ///< publish stamp (0 if unreadable)
};

/** Outcome of verify(). */
struct HoardVerifyReport
{
    std::size_t objects = 0;     ///< object files scanned
    std::size_t ok = 0;          ///< passed full validation
    std::size_t quarantined = 0; ///< failed and moved aside
};

/** Outcome of gc(). */
struct HoardGcReport
{
    std::size_t kept = 0;
    std::size_t evicted = 0;
    std::size_t tempsRemoved = 0; ///< leftover publish temps swept
    std::uint64_t keptBytes = 0;
    std::uint64_t evictedBytes = 0;
};

class HoardStore final : public ResultCache
{
  public:
    /** Object format version stamped into every object. */
    static constexpr std::int64_t kStoreVersion = 1;

    /** A claim expires this long after its last renewal; the
     *  heartbeat renews every third of it. */
    static constexpr double kClaimSeconds = 30.0;

    /**
     * Open (creating if needed) the store at `root`. Writes the
     * version marker on first open; throws std::invalid_argument
     * if an existing marker names a different version (a future
     * format must not be silently misread as this one).
     */
    explicit HoardStore(std::string root,
                        FaultInjector fault = FaultInjector());

    /** Stops the heartbeat and releases every claim still held. */
    ~HoardStore() override;

    const std::string &root() const { return root_; }

    /** The store key a (runner, config) pair resolves to. */
    static std::string keyFor(const std::string &runner,
                              const Json &config);

    /** Absolute object path for a key. */
    std::string objectPath(const std::string &key) const;

    /** Claim file path for a key. */
    std::string claimPath(const std::string &key) const;

    /**
     * Read-through lookup. On a valid hit, assigns the stored
     * result and returns true. Invalid objects (torn, digest
     * mismatch, wrong version/runner, key_config mismatch) are
     * quarantined and reported as a miss. Thread-safe.
     */
    bool fetch(const std::string &runner, const Json &config,
               Json &result) override;

    /**
     * Publish a computed result. Returns true if a new object was
     * written; false for duplicates (idempotent — the existing
     * object is left untouched) and for error results, which are
     * never cached ({"error": ...} must always re-run).
     * Thread-safe; safe against concurrent publishers of the same
     * key.
     */
    bool store(const std::string &runner, const Json &config,
               const Json &result) override;

    /**
     * Claim the point's key: Won if no claim existed, TakenOver if
     * the existing one's holder is dead (same host) or its claim
     * expired, Held while a live holder renews it — including
     * another thread of this store. A claims directory this store
     * cannot write to yields Won with no claim taken. Thread-safe.
     */
    Claim claim(const std::string &runner, const Json &config) override;

    /** Drop this store's claim on the point's key, if it still
     *  holds it. Thread-safe. */
    void release(const std::string &runner,
                 const Json &config) override;

    /** All stored objects, ordered by key. */
    std::vector<HoardObjectInfo> list() const;

    /**
     * Full integrity scan: every object is re-validated
     * (filename/key/digest/key_config/version) and failures are
     * quarantined.
     */
    HoardVerifyReport verify();

    /**
     * Size/age eviction, oldest publish stamp first: drop objects
     * older than `maxAgeDays` (0 = no age bound), then drop oldest
     * until the store fits `maxBytes` (0 = no size bound). Also
     * sweeps leftover publish temps. Unreadable objects sort
     * oldest, so they evict first.
     */
    HoardGcReport gc(std::uint64_t maxBytes, double maxAgeDays);

    /** Store statistics as a JSON document (for `qcarch hoard
     *  stat`): object/byte totals, per-runner counts and the
     *  quarantine's file count. */
    Json stat() const;

  private:
    bool validateObject(const Json &object, const std::string &key,
                        std::string &why) const;
    void quarantineObject(const std::string &path);
    void hold(const std::string &path, const LeaseInfo &lease)
        QC_EXCLUDES(claimMutex_);
    void stallStale(const std::string &path, LeaseInfo mine) const;
    void heartbeat() QC_EXCLUDES(claimMutex_);

    std::string root_;
    FaultInjector fault_;
    std::string nonce_; ///< process-unique temp suffix and claim owner

    Mutex claimMutex_;
    /** The claims the heartbeat renews, by path. */
    std::map<std::string, LeaseInfo> claims_ QC_GUARDED_BY(claimMutex_);
    bool staleFired_ QC_GUARDED_BY(claimMutex_) = false;
    bool closing_ QC_GUARDED_BY(claimMutex_) = false;
    std::thread heartbeat_ QC_GUARDED_BY(claimMutex_);
    std::condition_variable_any wake_;
};

} // namespace qc

#endif // QC_HOARD_HOARD_STORE_HH
