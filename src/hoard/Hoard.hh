/**
 * @file
 * Umbrella header for the hoard cache — the persistent
 * content-addressed result store, its point claims and the fault
 * injector (docs/HOARD.md).
 */

#ifndef QC_HOARD_HOARD_HH
#define QC_HOARD_HOARD_HH

#include "hoard/FaultInjector.hh" // IWYU pragma: export
#include "hoard/HoardKey.hh"      // IWYU pragma: export
#include "hoard/HoardStore.hh"    // IWYU pragma: export
#include "hoard/Lease.hh"         // IWYU pragma: export

#endif // QC_HOARD_HOARD_HH
