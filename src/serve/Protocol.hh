/**
 * @file
 * The on-disk protocol `qcarch serve` (coordinator) and `qcarch
 * work` (workers) speak, OpenISR-style: the coordinator expands a
 * sweep spec into point *shards* (parcels), workers check a shard
 * out under a time-limited exclusive lease, publish every computed
 * point to the shared result store, and check the shard back in
 * with a small durable *marker*. The coordinator builds the
 * document by fetching from the store; the lease only decides who
 * owns a shard, and the store holds all data.
 *
 * Everything lives under one coordination directory:
 *
 *     DIR/manifest.json   spec + lease TTL + generation; written
 *                         last at startup, so a manifest's
 *                         presence means the directory is open
 *     DIR/queue/          one descriptor per uncommitted shard:
 *                         {"id", "indices": [plan indices],
 *                          "attempt"} — rewritten (attempt+1,
 *                         merged indices dropped) when a lease is
 *                         reclaimed or a marker leaves points
 *                         missing
 *     DIR/leases/         at-most-one-owner checkouts (Lease.hh)
 *     DIR/results/        committed shard-done markers (atomic +
 *                         durable rename)
 *     DIR/hoard/          the result store every worker publishes
 *                         to (a HoardStore, opened by the CLI)
 *     DIR/done            written by the coordinator on exit:
 *                         "complete" or "interrupted"; workers
 *                         exit when it appears
 *     DIR/log             coordinator event log (reclaims, merges,
 *                         rejections — the kill-matrix gate greps
 *                         it)
 *
 * Shard indices refer to the deterministic SweepPlan expansion of
 * the manifest's spec, which both sides compute independently —
 * the protocol never ships configurations or results, only
 * indices. The store keys every result by its full configuration
 * and validates it on every fetch, so a skewed expansion or a
 * damaged object reads as a miss (and a recompute), never as a
 * wrong point in the document.
 */

#ifndef QC_SERVE_PROTOCOL_HH
#define QC_SERVE_PROTOCOL_HH

#include <cstddef>
#include <string>
#include <vector>

#include "api/Json.hh"

namespace qc {

/** Path helpers for a coordination directory. */
struct ServeDir
{
    std::string root;

    explicit ServeDir(std::string rootPath)
        : root(std::move(rootPath))
    {
    }

    std::string manifest() const { return root + "/manifest.json"; }
    std::string queueDir() const { return root + "/queue"; }
    std::string leaseDir() const { return root + "/leases"; }
    std::string markerDir() const { return root + "/results"; }
    std::string hoard() const { return root + "/hoard"; }
    std::string doneMarker() const { return root + "/done"; }
    std::string logFile() const { return root + "/log"; }

    std::string queueEntry(const std::string &shardId) const
    {
        return queueDir() + "/" + shardId + ".json";
    }
    std::string lease(const std::string &shardId) const
    {
        return leaseDir() + "/" + shardId + ".lease";
    }
    /** Marker names carry the committing worker's nonce so a
     *  partial commit and a later completion of the same shard
     *  never collide (each marker is immutable once renamed in). */
    std::string marker(const std::string &shardId,
                       const std::string &nonce) const
    {
        return markerDir() + "/" + shardId + "." + nonce + ".json";
    }
};

/** "shard-0007" — stable, sortable shard names. */
std::string shardId(std::size_t ordinal);

/**
 * Largest attempt counter a queue entry may carry. Attempts only
 * grow by one per reclaim, so any larger value means a corrupt or
 * hostile descriptor; rejecting it keeps the int field from being
 * fed an out-of-range number.
 */
constexpr std::size_t kMaxShardAttempts = 1u << 20;

/** One queue descriptor. */
struct ShardDescriptor
{
    std::string id;
    std::vector<std::size_t> indices; ///< canonical plan indices
    int attempt = 0;

    Json toJson() const;
    /** False on malformed/torn content (readers skip it). */
    static bool fromJson(const Json &json, ShardDescriptor &out);
};

/** A shard point whose runner threw: error results are never
 *  stored, so they ride in the marker instead. */
struct FailedPoint
{
    std::size_t index = 0; ///< canonical plan index
    std::string error;     ///< the runner's message
};

/**
 * A committed shard-done marker: the owner finished the shard (or,
 * when `partial`, drained out of it), and every point it computed
 * without error is in the store.
 */
struct ShardMarker
{
    std::string id;
    std::string owner;    ///< committing worker's lease nonce
    bool partial = false; ///< a drain cut the shard short
    std::vector<FailedPoint> failed;

    Json toJson() const;
    /** False on malformed/torn content. */
    static bool fromJson(const Json &json, ShardMarker &out);
};

} // namespace qc

#endif // QC_SERVE_PROTOCOL_HH
