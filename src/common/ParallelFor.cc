#include "common/ParallelFor.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

namespace qc {

int
resolveThreads(int threads)
{
    if (threads > 0)
        return threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

void
parallelFor(
    int threads, std::size_t tasks,
    const std::function<void(std::size_t task, std::size_t worker)>
        &body,
    const std::function<bool()> &stop)
{
    const std::size_t workers = std::min(
        static_cast<std::size_t>(resolveThreads(threads)), tasks);
    if (workers == 0)
        return;

    // The claim counter is memory_order_relaxed on purpose: it only
    // partitions indices. A task touches its own slots and its
    // worker's state, and join() publishes every write to the
    // caller; the counter itself synchronizes nothing. See
    // docs/ANALYSIS.md ("Relaxed atomics").
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(workers);
    const auto work = [&](std::size_t worker) {
        std::exception_ptr &error = errors[worker];
        try {
            for (;;) {
                if (stop && stop())
                    return;
                const std::size_t task =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (task >= tasks)
                    return;
                try {
                    body(task, worker);
                } catch (...) {
                    if (!error)
                        error = std::current_exception();
                }
            }
        } catch (...) {
            // stop() threw: this worker claims nothing more.
            if (!error)
                error = std::current_exception();
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) {
        try {
            pool.emplace_back(work, w);
        } catch (const std::system_error &) {
            // No thread to be had: the workers already running
            // claim the rest.
            break;
        }
    }
    work(0);
    for (std::thread &t : pool)
        t.join();
    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
}

} // namespace qc
