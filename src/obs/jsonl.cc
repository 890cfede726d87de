#include "obs/jsonl.hh"

#include "common/logging.hh"

namespace smt::obs
{

JsonlWriter::JsonlWriter(std::FILE *f, bool owned) : f_(f), owned_(owned)
{
}

JsonlWriter::JsonlWriter(const std::string &path)
    : JsonlWriter(std::fopen(path.c_str(), "a"), true)
{
    if (f_ == nullptr)
        smt_fatal("cannot open %s for append", path.c_str());
}

JsonlWriter::JsonlWriter(std::FILE *stream) : JsonlWriter(stream, false) {}

JsonlWriter::~JsonlWriter()
{
    if (owned_)
        std::fclose(f_);
}

std::unique_ptr<JsonlWriter>
JsonlWriter::open(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "a");
    if (f == nullptr)
        return nullptr;
    return std::unique_ptr<JsonlWriter>(new JsonlWriter(f, true));
}

void
JsonlWriter::write(const std::string &line)
{
    std::lock_guard<std::mutex> lk(mu_);
    std::fwrite(line.data(), 1, line.size(), f_);
    std::fputc('\n', f_);
    std::fflush(f_);
}

} // namespace smt::obs
