/**
 * @file
 * Deterministic discrete-event queue behind the dataflow executor
 * (arch/Microarch.hh; paper Section 5.2's "event-based simulation
 * of ancilla factory production and data qubit gate consumption").
 *
 * Events are plain data: a time, a sequence number, a node and a
 * kind. The caller's `fire` function decides what each one does, so
 * scheduling allocates nothing beyond the heap's own vector.
 */

#ifndef QC_SIM_EVENT_QUEUE_HH
#define QC_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/Logging.hh"
#include "common/Types.hh"

namespace qc {

/**
 * A time-ordered queue of typed events in one vector-backed binary
 * heap. Events fire in (when, seq) order, and seq is taken when an
 * event is scheduled, so events for the same tick fire in
 * scheduling order, which keeps runs deterministic.
 */
class EventQueue
{
  public:
    enum class Kind : std::uint8_t
    {
        Launch,   ///< a gate with no predecessors becomes ready
        Complete, ///< a gate finishes
    };

    struct Event
    {
        Time when = 0;
        std::uint64_t seq = 0;
        std::uint32_t node = 0;
        Kind kind = Kind::Launch;
    };

    /** Current simulated time. */
    Time now() const { return now_; }

    /**
     * Schedule an event at an absolute time. Scheduling into the
     * past (when < now()) is an error — silently accepting such an
     * event would fire it out of order and corrupt causality — and
     * panics with both timestamps in the message.
     */
    void
    schedule(Time when, std::uint32_t node, Kind kind)
    {
        if (when < now_)
            panic("EventQueue: scheduling into the past (", when,
                  " < ", now_, ")");
        heap_.push_back(Event{when, nextSeq_++, node, kind});
        std::push_heap(heap_.begin(), heap_.end(), later);
    }

    /**
     * Pass each event with a timestamp <= limit to `fire(event)`, in
     * order; `fire` may schedule more. If events remain, now() is
     * advanced to `limit` (the throttled-experiment deadline
     * semantics: the run is cut off mid-flight at exactly the
     * budget). If the queue drains first, now() stays at the last
     * event fired. Calling run()/runUntil() again resumes the
     * remaining events.
     *
     * @return the new now()
     */
    template <typename Fire>
    Time
    runUntil(Time limit, Fire &&fire)
    {
        if (limit < now_)
            panic("EventQueue: runUntil into the past (", limit, " < ",
                  now_, ")");
        while (!heap_.empty() && heap_.front().when <= limit) {
            std::pop_heap(heap_.begin(), heap_.end(), later);
            const Event event = heap_.back();
            heap_.pop_back();
            now_ = event.when;
            fire(event);
        }
        if (!heap_.empty())
            now_ = limit;
        return now_;
    }

    /** Run until the queue drains. Returns the final time. */
    template <typename Fire>
    Time
    run(Fire &&fire)
    {
        return runUntil(std::numeric_limits<Time>::max(), fire);
    }

    /** Events still waiting in the queue. */
    std::size_t pending() const { return heap_.size(); }

  private:
    /** Heap order: the earliest (when, seq) on top. */
    static bool
    later(const Event &a, const Event &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }

    Time now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::vector<Event> heap_;
};

} // namespace qc

#endif // QC_SIM_EVENT_QUEUE_HH
