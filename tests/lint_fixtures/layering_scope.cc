// qclint-fixture: path=src/tools_helper.cc
// qclint-fixture: expect=clean
// A path that maps to no declared module (src/ file outside any
// module directory) is outside the layering rule's blast radius.
#include "hoard/HoardStore.hh"

void helper() {}
