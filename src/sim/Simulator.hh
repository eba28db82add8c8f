/**
 * @file
 * Minimal deterministic discrete-event simulation core behind the
 * dataflow executor (arch/Microarch.hh; paper Section 5.2's
 * "event-based simulation of ancilla factory production and data
 * qubit gate consumption").
 */

#ifndef QC_SIM_SIMULATOR_HH
#define QC_SIM_SIMULATOR_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/Types.hh"

namespace qc {

/**
 * A time-ordered event queue. Events scheduled for the same tick
 * fire in scheduling order (stable), which keeps runs deterministic.
 */
class Simulator
{
  public:
    using Handler = std::function<void()>;

    /** Current simulated time. */
    Time now() const { return now_; }

    /**
     * Schedule a handler at an absolute time. Scheduling into the
     * past (when < now()) is an error — silently accepting such an
     * event would fire it out of order and corrupt causality — and
     * panics with both timestamps in the message.
     */
    void schedule(Time when, Handler handler);

    /** Run until the queue drains. Returns the final time. */
    Time run();

    /**
     * Run events with timestamps <= limit, then stop. If pending
     * events remain, now() is advanced to `limit` (the throttled-
     * experiment deadline semantics: the run is cut off mid-flight
     * at exactly the budget). If the queue drains first, now() stays
     * at the last event fired, as in run(). Calling run()/runUntil()
     * again resumes the remaining events.
     *
     * @return the new now()
     */
    Time runUntil(Time limit);

    /** Events still waiting in the queue. */
    std::size_t pending() const { return queue_.size(); }

  private:
    struct Event
    {
        Time when;
        std::uint64_t seq;
        Handler handler;
    };

    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    Time now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

} // namespace qc

#endif // QC_SIM_SIMULATOR_HH
