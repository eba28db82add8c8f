// qclint-fixture: path=src/api/Experiment.cc
// qclint-fixture: expect=clean
// The parse-robustness rule is scoped to the hoard paths that
// parse files other processes wrote. api-level config
// loading reports errors to a human and may keep the throwing
// accessors.
#include "api/Json.hh"

int shots(const qc::Json &j)
{
    return static_cast<int>(j.at("shots").asInt());
}
