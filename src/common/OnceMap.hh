/**
 * @file
 * A thread-safe map whose values are computed once per key: the
 * sweep engine's cross-point workload cache and the per-workload
 * analytics memo both fill one.
 */

#ifndef QC_COMMON_ONCE_MAP_HH
#define QC_COMMON_ONCE_MAP_HH

#include <exception>
#include <future>
#include <map>
#include <string>

#include "common/Mutex.hh"

namespace qc {

/**
 * Maps a key to a value computed on the key's first request. The
 * first requester computes outside the lock, so one long
 * computation does not serialize lookups of other keys; concurrent
 * requesters of the same key wait for it. A computation that throws
 * hands its exception to every waiter and leaves no entry behind,
 * so a later request retries.
 */
template <typename Value>
class OnceMap
{
  public:
    /**
     * The value for `key`, from `compute()` on first request. The
     * reference stays valid as long as the map.
     */
    template <typename Compute>
    const Value &
    get(const std::string &key, Compute &&compute)
    {
        std::promise<Value> promise;
        std::shared_future<Value> future;
        bool first = false;
        {
            MutexLock lock(mutex_);
            auto it = entries_.find(key);
            if (it == entries_.end()) {
                future = promise.get_future().share();
                entries_.emplace(key, future);
                first = true;
            } else {
                future = it->second;
            }
        }
        if (first) {
            try {
                promise.set_value(compute());
            } catch (...) {
                promise.set_exception(std::current_exception());
                MutexLock lock(mutex_);
                entries_.erase(key);
                throw;
            }
        }
        // The entry's future shares the result, so it outlives this
        // local copy.
        return future.get();
    }

  private:
    Mutex mutex_;
    std::map<std::string, std::shared_future<Value>> entries_
        QC_GUARDED_BY(mutex_);
};

} // namespace qc

#endif // QC_COMMON_ONCE_MAP_HH
