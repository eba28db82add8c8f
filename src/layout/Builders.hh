/**
 * @file
 * The two layout names perfbench/replay.cc calls: its mc-prep set-up
 * computes calibrateMovement(buildSimpleFactory(), tech). perfbench
 * builds the benchmark against this header and its sources change
 * only with the benchmark, so the names stay here as thin wrappers
 * over kFig11Movement. Nothing in the library, the tests, the
 * examples or the tools calls them; the routed Figure 11 layout that
 * derives the constant is the test oracle tests/LayoutRouter.hh.
 */

#ifndef QC_LAYOUT_BUILDERS_HH
#define QC_LAYOUT_BUILDERS_HH

#include "error/AncillaSim.hh"

namespace qc {

/** Stands for the simple ancilla factory of Figure 11. */
struct SimpleFactoryLayout
{
};

/** The simple ancilla factory of Figure 11. */
inline SimpleFactoryLayout
buildSimpleFactory()
{
    return {};
}

/** The Figure 11 factory's movement charges, at any technology. */
inline MovementModel
calibrateMovement(SimpleFactoryLayout, const IonTrapParams &)
{
    return kFig11Movement;
}

} // namespace qc

#endif // QC_LAYOUT_BUILDERS_HH
