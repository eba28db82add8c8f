// qclint-fixture: path=src/hoard/Tidy.cc
// qclint-fixture: expect=clean
#include <chrono>

// steady_clock measures intervals, not wall time; the wall-clock
// rule leaves it alone.
long elapsed() {
    const auto t0 = std::chrono::steady_clock::now();
    return (std::chrono::steady_clock::now() - t0).count();
}
