// qclint-fixture: path=src/hoard/Lease.cc
// qclint-fixture: expect=clean
#include <fcntl.h>

// The lease primitive itself implements the durability seam, so
// the raw-io rule whitelists this file.
int acquire(const char *path) { return ::open(path, O_CREAT | O_TRUNC | O_WRONLY, 0644); }
