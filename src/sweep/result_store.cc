#include "sweep/result_store.hh"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "sweep/remote_store.hh"

namespace fs = std::filesystem;

namespace smt::sweep
{

namespace
{

std::string
thisHost()
{
    char name[256] = {};
    if (::gethostname(name, sizeof name - 1) != 0)
        return "unknown";
    return name;
}

std::optional<Json>
readJsonFile(const std::string &path)
{
    Json j;
    if (!Json::readFile(path, j))
        return std::nullopt;
    return j;
}


/** True when `pid` is known dead on this host. A marker we cannot
 *  probe (foreign host, permission error) is presumed alive. */
bool
pidIsDead(long pid)
{
    if (pid <= 0)
        return true;
    return ::kill(static_cast<pid_t>(pid), 0) == -1 && errno == ESRCH;
}

/** Wall-clock seconds since the Unix epoch — marker deadlines compare
 *  *across hosts*, so this must be the system clock, not steady. */
double
epochSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

} // namespace

double
markerSkewSlackSeconds()
{
    const char *env = std::getenv("SMTSWEEP_MARKER_SLACK");
    if (env == nullptr)
        return 10.0;
    if (const std::optional<double> slack =
            parseSeconds(env, 0.0, kMaxSeconds))
        return *slack;
    // Every marker classification lands here: warn once, not per
    // marker.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true))
        smt_warn("ignoring SMTSWEEP_MARKER_SLACK=%s", env);
    return 10.0;
}

Json
makeSelfMarker(double ttl_seconds)
{
    Json marker = Json::object();
    marker.set("pid", Json(static_cast<std::uint64_t>(::getpid())));
    marker.set("host", Json(thisHost()));
    marker.set("deadline", Json(epochSeconds() + ttl_seconds));
    return marker;
}

bool
sameMarkerOwner(const std::string &marker_text, const Json &marker)
{
    // Markers cross the wire from peers we do not control: nothing
    // here may be fatal on a type-confused field (asUInt/asString
    // abort), only false.
    Json current;
    if (!Json::parse(marker_text, current)
        || current.type() != Json::Type::Object || !current.has("pid")
        || !current.has("host") || marker.type() != Json::Type::Object
        || !marker.has("pid") || !marker.has("host"))
        return false;
    const Json &a_host = current.at("host");
    const Json &b_host = marker.at("host");
    return current.at("pid").isNumber() && marker.at("pid").isNumber()
           && current.at("pid").asDouble()
                  == marker.at("pid").asDouble()
           && a_host.type() == Json::Type::String
           && b_host.type() == Json::Type::String
           && a_host.asString() == b_host.asString();
}

WorkState
classifyMarkerText(const std::string &marker_text,
                   const std::string &local_host)
{
    if (marker_text.empty())
        return WorkState::Pending;
    // A marker that exists but is malformed is a writer that crashed
    // mid-write: orphaned, not pending. Field reads must stay
    // non-fatal whatever a peer wrote (asUInt aborts on a negative
    // pid, asString on a non-string host), so go through asDouble and
    // explicit type checks.
    Json marker;
    if (!Json::parse(marker_text, marker)
        || marker.type() != Json::Type::Object || !marker.has("pid")
        || !marker.at("pid").isNumber())
        return WorkState::Orphaned;

    const double pid = marker.at("pid").asDouble();
    if (pid <= 0)
        return WorkState::Orphaned; // a declared orphan (any host).

    // The TTL lease: an expired deadline (past the clock-skew slack)
    // is a dead worker, whatever host wrote the marker — the one
    // death signal that needs no coordinator and no pid probe.
    if (marker.has("deadline") && marker.at("deadline").isNumber()
        && epochSeconds() > marker.at("deadline").asDouble()
                                + markerSkewSlackSeconds())
        return WorkState::Orphaned;

    const std::string host =
        marker.has("host")
                && marker.at("host").type() == Json::Type::String
            ? marker.at("host").asString()
            : "unknown";
    if (host == local_host && pidIsDead(static_cast<long>(pid)))
        return WorkState::Orphaned;
    return WorkState::InProgress;
}

const char *
toString(WorkState state)
{
    switch (state) {
    case WorkState::Done:
        return "done";
    case WorkState::InProgress:
        return "in-progress";
    case WorkState::Orphaned:
        return "orphaned";
    case WorkState::Pending:
        return "pending";
    }
    smt_panic("invalid WorkState %d", static_cast<int>(state));
}

LocalDirStore::LocalDirStore(const std::string &dir) : cache_(dir) {}

std::string
LocalDirStore::markerPath(const std::string &digest) const
{
    return cache_.dir() + "/" + digest + ".inprogress";
}

std::string
LocalDirStore::manifestPath() const
{
    return cache_.dir() + "/sweep-manifest.json";
}

std::optional<SimStats>
LocalDirStore::lookup(const std::string &digest) const
{
    return cache_.lookup(digest);
}

void
LocalDirStore::store(const std::string &digest, const SmtConfig &cfg,
                     const MeasureOptions &opts, const SimStats &stats,
                     double measure_seconds)
{
    cache_.store(digest, cfg, opts, stats, measure_seconds);
    clearInProgress(digest);
}

std::map<std::string, double>
LocalDirStore::observedCosts() const
{
    std::map<std::string, double> costs;
    for (const std::string &digest : cache_.listDigests()) {
        if (const std::optional<double> seconds =
                cache_.observedCost(digest))
            costs.emplace(digest, *seconds);
    }
    return costs;
}

void
LocalDirStore::writeMarker(const std::string &digest, const Json &marker)
{
    marker.writeFileAtomic(markerPath(digest));
}

void
LocalDirStore::markInProgress(const std::string &digest,
                              double ttl_seconds)
{
    writeMarker(digest, makeSelfMarker(ttl_seconds));
}

void
LocalDirStore::clearInProgress(const std::string &digest)
{
    std::error_code ec;
    fs::remove(markerPath(digest), ec);
}

void
LocalDirStore::markOrphaned(const std::string &digest)
{
    if (cache_.lookup(digest).has_value())
        return; // finished after all: nothing to declare.
    // pid 0 can never be a live worker, so every observer — any host,
    // any process — classifies this marker as Orphaned.
    Json marker = Json::object();
    marker.set("pid", Json(static_cast<std::uint64_t>(0)));
    marker.set("host", Json(thisHost()));
    writeMarker(digest, marker);
}

std::string
LocalDirStore::readMarkerText(const std::string &digest) const
{
    return readFileBytes(markerPath(digest)).value_or("");
}

bool
LocalDirStore::tryAdopt(const std::string &digest,
                        const std::string &expected_marker)
{
    // The claim lock serializes racing adopters of one digest: O_EXCL
    // creation is the atomic step, the marker rewrite happens inside
    // it. A crash while holding the lock leaks it — that digest then
    // stays unadoptable until the coordinator's recovery pass, which
    // measures leftovers itself; advisory is good enough here.
    const std::string lock_path = markerPath(digest) + ".lock";
    const int fd =
        ::open(lock_path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd < 0)
        return false; // a rival adopter holds the claim.
    ::close(fd);

    bool won = false;
    if (!cache_.readEntryText(digest).has_value()) {
        const std::string current = readMarkerText(digest);
        // A marker already carrying this process's claim means an
        // earlier attempt won (matching the wire protocol's retry
        // semantics). Ownership is compared by {pid, host}, not exact
        // bytes — deadlines refresh, bytes don't stay put. The normal
        // CAS applies otherwise.
        const Json mine = makeSelfMarker();
        if (sameMarkerOwner(current, mine))
            won = true;
        else if (current == expected_marker) {
            writeMarker(digest, mine);
            won = true;
        }
    }
    std::error_code ec;
    fs::remove(lock_path, ec);
    return won;
}

WorkState
LocalDirStore::state(const std::string &digest) const
{
    if (cache_.lookup(digest).has_value())
        return WorkState::Done;
    // An existing-but-empty marker file is a torn write, which
    // classify() would read as Pending; check existence explicitly.
    const std::string marker_text = readMarkerText(digest);
    if (marker_text.empty()) {
        std::error_code ec;
        return fs::exists(markerPath(digest), ec) ? WorkState::Orphaned
                                                  : WorkState::Pending;
    }
    return classifyMarkerText(marker_text, thisHost());
}

std::vector<std::string>
LocalDirStore::storedDigests() const
{
    return cache_.listDigests();
}

void
LocalDirStore::writeManifest(const Json &manifest)
{
    manifest.writeFileAtomic(manifestPath());
}

std::optional<Json>
LocalDirStore::readManifest() const
{
    return readJsonFile(manifestPath());
}

std::string
LocalDirStore::description() const
{
    return "dir:" + cache_.dir();
}

MarkerHeartbeat::MarkerHeartbeat(ResultStore &store, double ttl_seconds)
    : store_(store), ttl_(ttl_seconds)
{
}

MarkerHeartbeat::~MarkerHeartbeat()
{
    std::thread thread;
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
        thread = std::move(thread_);
    }
    cv_.notify_all();
    if (thread.joinable())
        thread.join();
}

void
MarkerHeartbeat::add(const std::string &digest)
{
    std::lock_guard<std::mutex> lock(mu_);
    live_.insert(digest);
    // The first marker to refresh starts the thread, so a sweep that
    // marks nothing (a cache replay) starts none.
    if (!thread_.joinable())
        thread_ = std::thread([this] { loop(); });
}

void
MarkerHeartbeat::remove(const std::string &digest)
{
    std::lock_guard<std::mutex> lock(mu_);
    live_.erase(digest);
}

void
MarkerHeartbeat::loop()
{
    // Refresh three times per lease so one delayed beat (scheduling,
    // a slow store round trip) still lands inside the TTL + slack.
    const auto cadence = std::chrono::duration<double>(
        std::max(0.05, ttl_ / 3.0));
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
        if (cv_.wait_for(lock, cadence, [this] { return stop_; }))
            return;
        if (live_.empty())
            continue;
        // Refresh while *holding* the lock: remove() cannot return
        // with a beat for its digest still in flight, so the caller's
        // remove-then-store sequence can never have its freshly
        // cleared marker resurrected by a posthumous refresh.
        const std::vector<std::string> live(live_.begin(),
                                            live_.end());
        store_.refreshMarkers(live, ttl_);
    }
}

std::string
resolveStoreToken(const std::string &token,
                  const std::string &token_file)
{
    auto trimmed = [](std::string text) {
        const char *ws = " \t\r\n";
        const std::size_t first = text.find_first_not_of(ws);
        if (first == std::string::npos)
            return std::string();
        const std::size_t last = text.find_last_not_of(ws);
        return text.substr(first, last - first + 1);
    };
    if (!token.empty())
        return token;
    if (!token_file.empty()) {
        const std::optional<std::string> bytes =
            readFileBytes(token_file);
        if (!bytes.has_value())
            smt_fatal("cannot read the token file %s",
                      token_file.c_str());
        // The documented contract is "the file's first line": later
        // lines (comments, a trailing key ceremony) must not leak
        // into the token — an embedded newline would corrupt the
        // Authorization header and disagree with what an ssh worker's
        // one-line read received.
        const std::string first_line =
            bytes->substr(0, bytes->find('\n'));
        const std::string file_token = trimmed(first_line);
        if (file_token.empty())
            smt_fatal("token file %s is empty", token_file.c_str());
        return file_token;
    }
    if (const char *env = std::getenv("SMTSTORE_TOKEN");
        env != nullptr)
        return trimmed(env);
    return "";
}

std::unique_ptr<ResultStore>
openLocalStore(const std::string &dir)
{
    return std::make_unique<LocalDirStore>(dir);
}

std::unique_ptr<ResultStore>
openStore(const std::string &locator, const std::string &token)
{
    if (isRemoteStoreLocator(locator))
        return openRemoteStore(locator, token);
    return openLocalStore(locator);
}

} // namespace smt::sweep
