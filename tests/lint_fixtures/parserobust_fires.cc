// qclint-fixture: path=src/hoard/ClaimScan.cc
// qclint-fixture: expect=parse-robustness:9, parse-robustness:14
#include <string>

#include "api/Json.hh"

int pid(const qc::Json &j)
{
    return static_cast<int>(j.at("pid").asInt());
}

std::string nonce(const qc::Json &j)
{
    return j.at("nonce").asString();
}
