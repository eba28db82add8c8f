/**
 * @file
 * Time-limited exclusive leases over a filesystem path — the
 * at-most-one-holder claim a HoardStore takes on a point before it
 * computes it (docs/HOARD.md), modeled on OpenISR's parcel locks: a
 * parcel is checked out on at most one client at a time, the lock
 * carries its owner and an expiry, and an owner that stops renewing
 * forfeits the checkout.
 *
 * A lease is one small JSON file. Acquisition writes the whole file
 * under a private name and hard-links it into place: link() fails
 * with EEXIST when the name is taken, so the filesystem arbitrates
 * ties and no reader ever sees a half-written lease. Renewal
 * atomically rewrites the file after verifying the nonce still
 * matches (a renewal after a takeover must not resurrect the lease
 * for the old owner). Expiry is wall-clock (epoch milliseconds) plus
 * a dead-owner fast path: a lease written on this host whose PID no
 * longer exists is stale at once. A PID means nothing on another
 * host, so a lease written elsewhere waits out its expiry.
 *
 * A lease only saves work, so races that slip the window (an owner
 * renewing in the same instant its lease is taken over, two
 * takeovers of one expired lease) are tolerated: the worst case is
 * a point computed twice, and the store holds the same bytes either
 * way.
 */

#ifndef QC_HOARD_LEASE_HH
#define QC_HOARD_LEASE_HH

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
    std::string host;       ///< writer's hostname (where pid means something)
    int pid = 0;            ///< owner process (same-host liveness)
    std::string nonce;      ///< owner instance (PID reuse guard)
    std::int64_t expiresMs = 0; ///< epoch ms; past = reclaimable
    double ttlSeconds = 0;  ///< renewal interval basis

    bool expired(std::int64_t nowMs) const
    {
        return nowMs > expiresMs;
    }

    /** False iff the owner is known dead: the lease was written on
     *  this host and its pid no longer exists (ESRCH). */
    bool ownerAlive() const;
};

class Lease
{
  public:
    /**
     * Try to create `path` exclusively holding `info` with expiry
     * now + ttl. Returns true on acquisition, false if the file
     * already exists. Throws std::runtime_error on other I/O
     * errors.
     */
    static bool tryAcquire(const std::string &path, LeaseInfo info);

    /**
     * Read a lease file. Returns false if absent or unparsable (a
     * damaged lease is treated as absent by readers; writers always
     * publish whole files via link or rename).
     */
    static bool read(const std::string &path, LeaseInfo &out);

    /**
     * Extend the expiry to now + ttl iff the file still holds our
     * nonce. Returns false — and leaves the file alone — if the
     * lease is gone or owned by someone else.
     */
    static bool renew(const std::string &path,
                      const LeaseInfo &mine);

    /** Remove the lease iff it still holds our nonce. Returns true
     *  if removed. */
    static bool release(const std::string &path,
                        const std::string &nonce);

    /**
     * Take a stale lease away: atomically rename it aside (so two
     * takers cannot both process the same lease file — the loser's
     * rename fails with ENOENT), check that what moved is the lease
     * the caller judged stale (`stale` as read() gave it, or a
     * default LeaseInfo for an unreadable file) and delete it. A
     * lease that changed in between — renewed, or already taken
     * over and re-acquired — is put back. Returns true iff this
     * caller removed the stale lease; the path is then acquirable
     * again via tryAcquire.
     */
    static bool steal(const std::string &path, const LeaseInfo &stale);

    /** This host's name, as leases and nonces record it. */
    static const std::string &hostName();

    /** A unique owner nonce ("host-pid-epochms-counter"). */
    static std::string makeNonce();
};

} // namespace qc

#endif // QC_HOARD_LEASE_HH
