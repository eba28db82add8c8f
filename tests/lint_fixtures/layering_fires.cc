// qclint-fixture: path=src/sim/Telemetry.cc
// qclint-fixture: expect=module-layering:7, module-layering:8
// sim is an inner engine module: it may reach common only, and
// certainly not back up into the sweep/hoard orchestration layers.
#include <string>

#include "sweep/SweepEngine.hh"
#include "hoard/HoardStore.hh"
#include "common/Clock.hh"

void record(const std::string &) {}
