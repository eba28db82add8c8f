// qclint-fixture: path=src/hoard/FaultInjector.cc
// qclint-fixture: expect=clean
#include <unistd.h>

// Process death is the fault injector's whole job.
void kill() { ::_exit(7); }
