/**
 * @file
 * The one JSONL writer every event stream shares: sweep trace spans
 * (`TraceWriter`), pipetrace streams (`PipeTrace`), the worker spans
 * a coordinator forwards into its own trace, and the store's access
 * log. Each line is appended whole and flushed under a lock, so
 * several threads may write, a reader (or `tail -f`) sees complete
 * lines while the writer runs, and a crash loses at most the line
 * being written.
 */

#ifndef SMT_OBS_JSONL_HH
#define SMT_OBS_JSONL_HH

#include <cstdio>
#include <memory>
#include <mutex>
#include <string>

namespace smt::obs
{

class JsonlWriter
{
  public:
    /** Opens `path` for append; fatal if it cannot be opened.
     *  "/dev/null" works and is what the simspeed A/B uses. */
    explicit JsonlWriter(const std::string &path);

    /** Writes to a borrowed stream (a shard worker's stdout); the
     *  stream is flushed per line but never closed. */
    explicit JsonlWriter(std::FILE *stream);

    ~JsonlWriter();

    JsonlWriter(const JsonlWriter &) = delete;
    JsonlWriter &operator=(const JsonlWriter &) = delete;

    /** Opens `path` for append; null when it cannot be opened. */
    static std::unique_ptr<JsonlWriter> open(const std::string &path);

    /** Append one line (newline added) and flush. */
    void write(const std::string &line);

  private:
    JsonlWriter(std::FILE *f, bool owned);

    std::FILE *f_;
    bool owned_; ///< close f_ on destruction (not a borrowed stream).
    std::mutex mu_;
};

} // namespace smt::obs

#endif // SMT_OBS_JSONL_HH
