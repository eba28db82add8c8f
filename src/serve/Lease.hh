/**
 * @file
 * Time-limited exclusive leases over a filesystem directory — the
 * at-most-one-owner checkout at the heart of the sweep service,
 * modeled on OpenISR's parcel locks: a parcel (here, a point
 * shard) is checked out on at most one client at a time, the lock
 * carries its owner and an expiry, and an owner that stops
 * heartbeating forfeits the checkout.
 *
 * A lease is one JSON file. Acquisition is O_CREAT|O_EXCL — the
 * filesystem arbitrates ties, so two workers racing for a shard
 * cannot both win. Renewal atomically rewrites the file after
 * verifying the nonce still matches (a renewal after a reclaim
 * must not resurrect the lease for the old owner). Expiry is
 * wall-clock (epoch milliseconds) plus a dead-owner fast path:
 * a lease whose recorded PID no longer exists is reclaimable
 * immediately, without waiting out the TTL. PIDs are only
 * meaningful on one box; remote workers rely on the TTL alone.
 *
 * Races that slip the window (an owner renewing in the same
 * instant its lease is reclaimed) are tolerated one layer up:
 * workers re-verify ownership immediately before committing a
 * marker, the coordinator rejects markers whose owner no longer
 * holds the lease, and every point comes from the validated result
 * store, so the worst case is wasted work, never a wrong document.
 */

#ifndef QC_SERVE_LEASE_HH
#define QC_SERVE_LEASE_HH

#include <cstdint>
#include <string>

namespace qc {

/** Epoch milliseconds (wall-clock — leases expire in real time).
 *  Reads qc::WallClock::current(), so tests can install a
 *  FakeWallClock (common/Clock.hh) and step lease expiry by hand. */
std::int64_t nowEpochMs();

/** The contents of one lease file. */
struct LeaseInfo
{
    int pid = 0;            ///< owner process (same-box liveness)
    std::string nonce;      ///< owner instance (PID reuse guard)
    std::int64_t expiresMs = 0; ///< epoch ms; past = reclaimable
    double ttlSeconds = 0;  ///< renewal interval basis

    bool expired(std::int64_t nowMs) const
    {
        return nowMs > expiresMs;
    }

    /** False iff pid is known-dead on this box (ESRCH). */
    bool ownerAlive() const;
};

class Lease
{
  public:
    /**
     * Try to create `path` exclusively (O_CREAT|O_EXCL) holding
     * `info` with expiry now + ttl. Returns true on acquisition,
     * false if the file already exists. Throws std::runtime_error
     * on I/O errors other than EEXIST.
     */
    static bool tryAcquire(const std::string &path, LeaseInfo info);

    /**
     * Read a lease file. Returns false if absent or unparsable (a
     * torn lease is treated as absent by readers; writers always
     * publish whole files via rename).
     */
    static bool read(const std::string &path, LeaseInfo &out);

    /**
     * Extend the expiry to now + ttl iff the file still holds our
     * nonce. Returns false — and leaves the file alone — if the
     * lease is gone or owned by someone else (the caller lost the
     * checkout and must stop publishing).
     */
    static bool renew(const std::string &path,
                      const LeaseInfo &mine);

    /** Remove the lease iff it still holds our nonce. Returns true
     *  if removed. */
    static bool release(const std::string &path,
                        const std::string &nonce);

    /**
     * Reclaim a stale lease: atomically rename it aside (so two
     * reclaimers cannot both process the same lease file — the
     * loser's rename fails with ENOENT) and delete it. Returns
     * true iff this caller won the rename. The shard becomes
     * acquirable again via tryAcquire. `aside` must be on the same
     * filesystem.
     */
    static bool steal(const std::string &path,
                      const std::string &aside);

    /** A process-unique owner nonce ("pid-epochms-counter"). */
    static std::string makeNonce();
};

} // namespace qc

#endif // QC_SERVE_LEASE_HH
