#include "sweep/result_cache.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "sweep/digest.hh"
#include "sweep/json.hh"
#include "sweep/serialize.hh"

namespace fs = std::filesystem;

namespace smt::sweep
{

std::optional<std::string>
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream text;
    text << in.rdbuf();
    if (in.bad())
        return std::nullopt;
    return text.str();
}

namespace
{

/** Atomic raw write (temp + rename), mirroring Json::writeFileAtomic
 *  for bytes that must land exactly as given. */
bool
rawWriteFileAtomic(const std::string &path, const std::string &text)
{
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out.write(text.data(),
                  static_cast<std::streamsize>(text.size()));
        out.flush();
        if (!out) {
            std::error_code ec;
            fs::remove(tmp, ec);
            return false;
        }
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return false;
    }
    return true;
}

} // namespace

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir))
{
    smt_assert(!dir_.empty());
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        smt_fatal("cannot create result cache directory %s: %s",
                  dir_.c_str(), ec.message().c_str());
}

std::string
ResultCache::entryPath(const std::string &digest) const
{
    return dir_ + "/" + digest + ".json";
}

std::optional<SimStats>
ResultCache::lookup(const std::string &digest) const
{
    Json entry;
    if (!Json::readFile(entryPath(digest), entry)
        || entry.type() != Json::Type::Object || !entry.has("digest")
        || !entry.has("stats")
        || entry.at("digest").type() != Json::Type::String
        || entry.at("digest").asString() != digest)
        return std::nullopt;

    SimStats stats;
    if (!simStatsFromJson(entry.at("stats"), stats))
        return std::nullopt;
    return stats;
}

Json
makeEntryJson(const std::string &digest, const SmtConfig &cfg,
              const MeasureOptions &opts, const SimStats &stats,
              double measure_seconds)
{
    Json entry = Json::object();
    entry.set("digest", Json(digest));
    entry.set("key", measurementKey(cfg, opts));
    if (measure_seconds > 0.0)
        entry.set("measureSeconds", Json(measure_seconds));
    entry.set("stats", toJson(stats));
    return entry;
}

void
ResultCache::store(const std::string &digest, const SmtConfig &cfg,
                   const MeasureOptions &opts, const SimStats &stats,
                   double measure_seconds) const
{
    // Atomic temp-then-rename keeps readers (and concurrent writers of
    // the same digest, whose stats bytes agree by construction) from
    // ever seeing a torn entry. A failed write is a lost cache entry,
    // not an error.
    makeEntryJson(digest, cfg, opts, stats, measure_seconds)
        .writeFileAtomic(entryPath(digest));
}

std::optional<double>
ResultCache::observedCost(const std::string &digest) const
{
    Json entry;
    if (!Json::readFile(entryPath(digest), entry)
        || entry.type() != Json::Type::Object
        || !entry.has("measureSeconds")
        || !entry.at("measureSeconds").isNumber())
        return std::nullopt;
    const double seconds = entry.at("measureSeconds").asDouble();
    if (seconds <= 0.0)
        return std::nullopt;
    return seconds;
}

EntryFile::EntryFile(EntryFile &&other) noexcept
    : fd_(other.fd_), identity_(other.identity_)
{
    other.fd_ = -1;
}

EntryFile::~EntryFile()
{
    if (fd_ >= 0)
        ::close(fd_);
}

std::optional<std::string>
EntryFile::read() const
{
    std::string text(identity_.size, '\0');
    std::size_t got = 0;
    while (got < text.size()) {
        const ssize_t n = ::pread(fd_, text.data() + got,
                                  text.size() - got,
                                  static_cast<off_t>(got));
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0)
            return std::nullopt;
        if (n == 0)
            break;
        got += static_cast<std::size_t>(n);
    }
    text.resize(got);
    return text;
}

std::optional<EntryFile>
ResultCache::openEntry(const std::string &digest) const
{
    if (!looksLikeDigest(digest))
        return std::nullopt;
    const int fd = ::open(entryPath(digest).c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return std::nullopt;
    struct stat st;
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
        ::close(fd);
        return std::nullopt;
    }
    EntryFile::Identity id;
    id.device = static_cast<std::uint64_t>(st.st_dev);
    id.inode = static_cast<std::uint64_t>(st.st_ino);
    id.size = static_cast<std::uint64_t>(st.st_size);
    id.mtimeNs = static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000
                 + st.st_mtim.tv_nsec;
    return EntryFile(fd, id);
}

std::optional<std::string>
ResultCache::readEntryText(const std::string &digest) const
{
    const std::optional<EntryFile> file = openEntry(digest);
    if (!file.has_value())
        return std::nullopt;
    return file->read();
}

bool
ResultCache::writeEntryText(const std::string &digest,
                            const std::string &text) const
{
    if (!looksLikeDigest(digest))
        return false;
    return rawWriteFileAtomic(entryPath(digest), text);
}

std::size_t
ResultCache::entryCount() const
{
    return listDigests().size();
}

std::vector<std::string>
ResultCache::listDigests() const
{
    std::vector<std::string> digests;
    std::error_code ec;
    for (const auto &e : fs::directory_iterator(dir_, ec)) {
        if (e.path().extension() != ".json")
            continue;
        std::string stem = e.path().stem().string();
        if (looksLikeDigest(stem))
            digests.push_back(std::move(stem));
    }
    std::sort(digests.begin(), digests.end());
    return digests;
}

} // namespace smt::sweep
