#include "sim/Simulator.hh"

#include "common/Logging.hh"

namespace qc {

void
Simulator::schedule(Time when, Handler handler)
{
    if (when < now_)
        panic("Simulator: scheduling into the past (", when, " < ",
              now_, ")");
    queue_.push(Event{when, nextSeq_++, std::move(handler)});
}

Time
Simulator::run()
{
    while (!queue_.empty()) {
        // Moving out of a priority_queue requires a const_cast;
        // contained handlers are never observed again after pop.
        Event event = std::move(
            const_cast<Event &>(queue_.top()));
        queue_.pop();
        now_ = event.when;
        event.handler();
    }
    return now_;
}

Time
Simulator::runUntil(Time limit)
{
    if (limit < now_)
        panic("Simulator: runUntil into the past (", limit, " < ",
              now_, ")");
    while (!queue_.empty() && queue_.top().when <= limit) {
        Event event = std::move(
            const_cast<Event &>(queue_.top()));
        queue_.pop();
        now_ = event.when;
        event.handler();
    }
    if (!queue_.empty())
        now_ = limit;
    return now_;
}

} // namespace qc
