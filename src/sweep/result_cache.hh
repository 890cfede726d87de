/**
 * @file
 * The on-disk, content-addressed result store.
 *
 * One JSON file per measurement digest. A lookup hit replays the
 * cached SimStats bit-identically (every counter is an exact integer
 * in the file), so re-running a sweep re-simulates only points whose
 * (config, options, seed) digest has changed. Entries carry the full
 * canonical key beside the stats, making cache files self-describing.
 * Unreadable or corrupt entries are treated as misses, never errors.
 */

#ifndef SMT_SWEEP_RESULT_CACHE_HH
#define SMT_SWEEP_RESULT_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "config/config.hh"
#include "sim/mix_runner.hh"
#include "stats/stats.hh"
#include "sweep/json.hh"

namespace smt::sweep
{

/** Slurp a whole file as bytes; nullopt when unreadable. */
std::optional<std::string> readFileBytes(const std::string &path);

/** The canonical cache-entry document: digest, human-readable key,
 *  optional observed cost, exact-integer stats. Local writes and
 *  remote PUTs both build entries here, so the formats cannot
 *  drift. */
Json makeEntryJson(const std::string &digest, const SmtConfig &cfg,
                   const MeasureOptions &opts, const SimStats &stats,
                   double measure_seconds = 0.0);

/**
 * An entry file open for reading. Its identity and its bytes come from
 * one descriptor, so both describe the same inode however the name is
 * replaced meanwhile.
 */
class EntryFile
{
  public:
    /** What makes two opens the same file. Every writer replaces an
     *  entry by temp + rename, so a rewrite is a new inode. */
    struct Identity
    {
        std::uint64_t device = 0;
        std::uint64_t inode = 0;
        std::uint64_t size = 0;
        std::int64_t mtimeNs = 0;

        bool operator==(const Identity &) const = default;
    };

    EntryFile(EntryFile &&other) noexcept;
    EntryFile &operator=(EntryFile &&) = delete;
    ~EntryFile();

    /** From fstat(2) on the open descriptor. */
    const Identity &identity() const { return identity_; }

    /** The file's bytes; nullopt on a read error. */
    std::optional<std::string> read() const;

  private:
    friend class ResultCache;
    EntryFile(int fd, const Identity &identity)
        : fd_(fd), identity_(identity)
    {
    }

    int fd_;
    Identity identity_;
};

/** A directory of digest-named measurement results. */
class ResultCache
{
  public:
    /** Opens (creating if needed) the store rooted at `dir`. */
    explicit ResultCache(std::string dir);

    const std::string &dir() const { return dir_; }

    /** The stats cached under `digest`, if present and well-formed. */
    std::optional<SimStats> lookup(const std::string &digest) const;

    /**
     * Persist a measurement. Writes are atomic (temp file + rename),
     * so concurrent sweeps sharing a cache directory are safe.
     * `measure_seconds`, when positive, records the observed wall cost
     * of the measurement beside the stats (the shard planner prefers
     * observed over estimated cost on the next sweep).
     */
    void store(const std::string &digest, const SmtConfig &cfg,
               const MeasureOptions &opts, const SimStats &stats,
               double measure_seconds = 0.0) const;

    /** The observed measurement cost recorded with an entry, if any. */
    std::optional<double> observedCost(const std::string &digest) const;

    /**
     * Raw entry file access for the wire protocol: the exact on-disk
     * bytes (so a served entry's ETag digest is reproducible), and an
     * atomic raw write of bytes a remote client already digested. The
     * writer vets nothing beyond the digest-shaped name — readers
     * treat malformed entries as misses, exactly like local corruption.
     */
    std::optional<std::string> readEntryText(const std::string &digest)
        const;
    /** Open an entry for reading; nullopt when absent or unreadable. */
    std::optional<EntryFile> openEntry(const std::string &digest) const;
    bool writeEntryText(const std::string &digest,
                        const std::string &text) const;

    /** Number of entries currently on disk. */
    std::size_t entryCount() const;

    /** The digests of every entry on disk, sorted. Marker and manifest
     *  files sharing the directory are not entries. */
    std::vector<std::string> listDigests() const;

  private:
    std::string entryPath(const std::string &digest) const;

    std::string dir_;
};

} // namespace smt::sweep

#endif // SMT_SWEEP_RESULT_CACHE_HH
