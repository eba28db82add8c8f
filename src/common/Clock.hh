/**
 * @file
 * The injectable wall-clock seam. Everything in the library that
 * needs real-world time — today, the hoard's claim expiries and
 * object publish stamps — reads it through qc::WallClock::current(), so tests can
 * install a FakeWallClock and step time by hand instead of sleeping
 * out TTLs, and the qclint `wall-clock` rule can confine raw
 * std::chrono::system_clock reads to common/Clock.cc.
 *
 * Monotonic *interval* timing (std::chrono::steady_clock for
 * backoff, heartbeat cadence, wall-seconds reporting) is not
 * wall-clock and does not route through this seam: it never enters
 * serialized output and cannot jump backwards.
 *
 * The override is process-wide and intended for tests; install() is
 * an atomic pointer swap, so concurrent epochMs() readers are safe,
 * but installing while another thread still *depends* on the old
 * clock is a test-structure bug.
 */

#ifndef QC_COMMON_CLOCK_HH
#define QC_COMMON_CLOCK_HH

#include <atomic>
#include <cstdint>

namespace qc {

/** Source of wall-clock time (epoch milliseconds). */
class WallClock
{
  public:
    virtual ~WallClock() = default;

    /** Milliseconds since the Unix epoch. */
    virtual std::int64_t epochMs() = 0;

    /** The process-wide clock: the real system clock unless a test
     *  installed a fake. */
    static WallClock &current();

    /**
     * Install a replacement clock (not owned; must outlive its
     * installation). Returns the previously installed clock, or
     * nullptr if the system clock was active. Passing nullptr
     * restores the system clock. Prefer ScopedWallClock in tests.
     */
    static WallClock *install(WallClock *clock);
};

/** WallClock::current().epochMs() — the one sanctioned wall-clock
 *  read outside common/Clock.cc. */
std::int64_t wallClockEpochMs();

/** A manual clock for tests: starts where you say, moves only when
 *  advanced. Thread-safe. */
class FakeWallClock : public WallClock
{
  public:
    explicit FakeWallClock(std::int64_t startMs = 1700000000000)
        : nowMs_(startMs)
    {
    }

    std::int64_t epochMs() override { return nowMs_.load(); }

    void advanceMs(std::int64_t deltaMs)
    {
        nowMs_.fetch_add(deltaMs);
    }

    void setMs(std::int64_t ms) { nowMs_.store(ms); }

  private:
    std::atomic<std::int64_t> nowMs_;
};

/** Installs `clock` for the enclosing scope, restoring whatever was
 *  active before on destruction. */
class ScopedWallClock
{
  public:
    explicit ScopedWallClock(WallClock &clock)
        : previous_(WallClock::install(&clock))
    {
    }

    ~ScopedWallClock() { WallClock::install(previous_); }

    ScopedWallClock(const ScopedWallClock &) = delete;
    ScopedWallClock &operator=(const ScopedWallClock &) = delete;

  private:
    WallClock *previous_;
};

} // namespace qc

#endif // QC_COMMON_CLOCK_HH
