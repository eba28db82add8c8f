#include "serve/Protocol.hh"

#include <cstdio>

namespace qc {

namespace {

/** find() + kind check for the reject-whole parsers below: the
 *  getString/getBool lookups throw on a present-but-mistyped key,
 *  which is exactly what a fromJson returning bool must not do. */
bool
readString(const Json &json, const char *key, std::string &out)
{
    const Json *value = json.find(key);
    if (!value || !value->isString())
        return false;
    out = value->asString();
    return true;
}

bool
readBool(const Json &json, const char *key, bool &out)
{
    const Json *value = json.find(key);
    if (!value || !value->isBool())
        return false;
    out = value->asBool();
    return true;
}

} // namespace

std::string
shardId(std::size_t ordinal)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "shard-%04zu", ordinal);
    return buf;
}

Json
ShardDescriptor::toJson() const
{
    Json indicesJson = Json::array();
    for (std::size_t index : indices)
        indicesJson.push(Json(static_cast<std::uint64_t>(index)));
    Json j = Json::object();
    j.set("id", id);
    j.set("indices", std::move(indicesJson));
    j.set("attempt", attempt);
    return j;
}

bool
ShardDescriptor::fromJson(const Json &json, ShardDescriptor &out)
{
    // Every read below is bounds-checked (find/asIndex, never
    // at()/asInt): queue entries come off a shared filesystem, and
    // a malformed one must read as "reject this file", not as an
    // exception escaping into the acquire/merge loop.
    const Json *indices = json.find("indices");
    if (!indices || !indices->isArray())
        return false;
    if (!readString(json, "id", out.id))
        return false;
    std::size_t attempt = 0;
    if (const Json *a = json.find("attempt")) {
        if (!a->asIndex(attempt) || attempt > kMaxShardAttempts)
            return false;
    }
    out.attempt = static_cast<int>(attempt);
    out.indices.clear();
    for (std::size_t i = 0; i < indices->size(); ++i) {
        std::size_t index = 0;
        if (!indices->find(i)->asIndex(index))
            return false;
        out.indices.push_back(index);
    }
    return !out.id.empty();
}

Json
ShardMarker::toJson() const
{
    Json failedJson = Json::array();
    for (const FailedPoint &point : failed) {
        Json p = Json::object();
        p.set("index", static_cast<std::uint64_t>(point.index));
        p.set("error", point.error);
        failedJson.push(std::move(p));
    }
    Json j = Json::object();
    j.set("id", id);
    j.set("owner", owner);
    j.set("partial", partial);
    j.set("failed", std::move(failedJson));
    return j;
}

bool
ShardMarker::fromJson(const Json &json, ShardMarker &out)
{
    const Json *failed = json.find("failed");
    if (!failed || !failed->isArray())
        return false;
    if (!readString(json, "id", out.id)
        || !readString(json, "owner", out.owner)
        || !readBool(json, "partial", out.partial))
        return false;
    out.failed.clear();
    for (std::size_t i = 0; i < failed->size(); ++i) {
        const Json *entry = failed->find(i);
        const Json *index = entry->find("index");
        FailedPoint point;
        if (!index || !index->asIndex(point.index)
            || !readString(*entry, "error", point.error))
            return false;
        out.failed.push_back(std::move(point));
    }
    return !out.id.empty() && !out.owner.empty();
}

} // namespace qc
