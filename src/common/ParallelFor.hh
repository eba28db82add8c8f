/**
 * @file
 * The one way work is spread over threads: the sweep engine's
 * points and BatchAncillaSim's batches (a stratified estimate's
 * strata among them) all run through parallelFor. Tasks are
 * index-addressed and write their results to index-addressed
 * slots, so the order in which workers claim them never reaches an
 * output.
 */

#ifndef QC_COMMON_PARALLEL_FOR_HH
#define QC_COMMON_PARALLEL_FOR_HH

#include <cstddef>
#include <functional>

namespace qc {

/** Worker count for a `threads` knob: the value itself, or
 *  std::thread::hardware_concurrency() (at least 1) when it is 0
 *  or negative. */
int resolveThreads(int threads);

/**
 * Run body(task, worker) for every task in [0, tasks) on
 * min(resolveThreads(threads), tasks) workers and return when all
 * of them have finished. Tasks are claimed in ascending order from
 * one shared counter. The caller is worker 0, so a one-worker call
 * starts no thread; `worker` indexes per-worker state the body
 * keeps without a lock. When the system refuses a thread, the
 * workers already running claim the rest.
 *
 * A task that throws does not stop the others. Once every worker
 * has returned, the first exception of the lowest-numbered worker
 * that caught one is rethrown.
 *
 * `stop` (may be empty) is polled before each claim: once it
 * returns true no further task starts, and parallelFor returns
 * after the running ones complete. That is the graceful drain
 * behind `qcarch sweep`'s SIGINT/SIGTERM handling. A stop that
 * throws ends its worker's claims and is rethrown like a task's
 * exception.
 */
void parallelFor(
    int threads, std::size_t tasks,
    const std::function<void(std::size_t task, std::size_t worker)>
        &body,
    const std::function<bool()> &stop = {});

} // namespace qc

#endif // QC_COMMON_PARALLEL_FOR_HH
