/**
 * @file
 * Fuzz the lease file parser — the surface a hostile or damaged
 * claims directory (ROOT/claims/ in a hoard store) hits. The input
 * is one lease file body.
 *
 *  - Lease::read must return false (never throw) on anything that
 *    is not a well-formed lease;
 *  - an accepted lease carries no negative pid or expiry, and
 *    judging it (expiry, owner liveness) never throws.
 */

#include <string>

#include "fuzz/FuzzUtil.hh"
#include "hoard/Lease.hh"

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    static const qcfuzz::TempDir tmp;
    const std::string leasePath = tmp.path() + "/fuzz.lease";
    qcfuzz::writeFile(leasePath, qcfuzz::toString(data, size));
    qc::LeaseInfo info;
    if (qc::Lease::read(leasePath, info)) {
        QC_FUZZ_ASSERT(info.pid >= 0,
                       "accepted lease with negative pid");
        QC_FUZZ_ASSERT(info.expiresMs >= 0,
                       "accepted lease with negative expiry");
        (void)info.expired(qc::nowEpochMs());
        (void)info.ownerAlive();
    }
    return 0;
}
