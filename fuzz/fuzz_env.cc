/**
 * @file
 * Fuzz the environment/string parsers that run before any real
 * work: FaultInjector::parse (--fault / QCARCH_FAULT),
 * simd::parseWidth, and resolveWidth under a hostile
 * QC_FORCE_WIDTH. Three NUL-separated sections, one per surface.
 *
 *  - FaultInjector::parse throws std::invalid_argument on bad
 *    specs and nothing else; an accepted spec is armed (or the
 *    empty disarmed spec);
 *  - parseWidth returns false on bad names, never throws;
 *  - resolveWidth under a hostile QC_FORCE_WIDTH throws
 *    std::runtime_error (the documented contract) or resolves to
 *    a width the CPU supports.
 */

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "common/simd/SimdDispatch.hh"
#include "fuzz/FuzzUtil.hh"
#include "hoard/FaultInjector.hh"

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    const auto sections = qcfuzz::splitSections(data, size, 3);

    try {
        const qc::FaultInjector fault =
            qc::FaultInjector::parse(sections[0]);
        QC_FUZZ_ASSERT(fault.armed() == !sections[0].empty(),
                       "parse armed state disagrees with spec");
    } catch (const std::invalid_argument &) {
        // rejected cleanly
    }

    qc::simd::Width width = qc::simd::Width::Auto;
    if (qc::simd::parseWidth(sections[1], &width)) {
        QC_FUZZ_ASSERT(*qc::simd::widthName(width) != '\0',
                       "parsed width has no name");
    }

    ::setenv("QC_FORCE_WIDTH", sections[2].c_str(), 1);
    try {
        const qc::simd::Width resolved =
            qc::simd::resolveWidth(qc::simd::Width::Auto);
        QC_FUZZ_ASSERT(qc::simd::widthSupported(resolved),
                       "resolved width the CPU cannot execute");
    } catch (const std::runtime_error &) {
        // rejected cleanly
    }
    ::unsetenv("QC_FORCE_WIDTH");

    // QCARCH_FAULT goes through the same parser via fromEnv; the
    // contract there is throw-or-armed, same as --fault.
    ::setenv("QCARCH_FAULT", sections[0].c_str(), 1);
    try {
        (void)qc::FaultInjector::fromEnv();
    } catch (const std::invalid_argument &) {
        // rejected cleanly
    }
    ::unsetenv("QCARCH_FAULT");
    return 0;
}
