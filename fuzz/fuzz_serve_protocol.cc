/**
 * @file
 * Fuzz the serve protocol's file parsers — the surfaces a hostile
 * or torn coordination directory hits. The input is three
 * NUL-separated sections: a lease file body, a queue-entry
 * document, and a shard-done marker document.
 *
 *  - Lease::read must return false (never throw) on anything that
 *    is not a well-formed lease;
 *  - ShardDescriptor/ShardMarker::fromJson must reject-whole: false
 *    with the output untouched semantics the merge loop assumes,
 *    never a partially filled struct behind a true, never an
 *    exception.
 */

#include <stdexcept>
#include <string>

#include "api/Json.hh"
#include "fuzz/FuzzUtil.hh"
#include "serve/Lease.hh"
#include "serve/Protocol.hh"

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    const auto sections = qcfuzz::splitSections(data, size, 3);

    {
        static const qcfuzz::TempDir tmp;
        const std::string leasePath = tmp.path() + "/fuzz.lease";
        qcfuzz::writeFile(leasePath, sections[0]);
        qc::LeaseInfo info;
        if (qc::Lease::read(leasePath, info)) {
            QC_FUZZ_ASSERT(info.pid >= 0,
                           "accepted lease with negative pid");
            QC_FUZZ_ASSERT(info.expiresMs >= 0,
                           "accepted lease with negative expiry");
        }
    }

    for (std::size_t s = 1; s < 3; ++s) {
        qc::Json doc;
        try {
            doc = qc::Json::parse(sections[s]);
        } catch (const std::invalid_argument &) {
            continue;
        }
        if (s == 1) {
            qc::ShardDescriptor descriptor;
            if (qc::ShardDescriptor::fromJson(doc, descriptor)) {
                QC_FUZZ_ASSERT(!descriptor.id.empty(),
                               "accepted descriptor with empty id");
                QC_FUZZ_ASSERT(descriptor.attempt >= 0,
                               "accepted negative attempt");
            }
        } else {
            qc::ShardMarker marker;
            if (qc::ShardMarker::fromJson(doc, marker)) {
                QC_FUZZ_ASSERT(!marker.id.empty()
                                   && !marker.owner.empty(),
                               "accepted marker with empty id/owner");
                // Accepted markers round-trip: what a worker
                // writes is what the coordinator reads.
                qc::ShardMarker again;
                QC_FUZZ_ASSERT(
                    qc::ShardMarker::fromJson(marker.toJson(), again),
                    "accepted marker's toJson() was rejected");
                QC_FUZZ_ASSERT(again.failed.size()
                                   == marker.failed.size(),
                               "marker round-trip changed failures");
            }
        }
    }
    return 0;
}
