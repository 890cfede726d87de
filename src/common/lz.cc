#include "common/lz.hh"

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace smt
{

namespace
{

constexpr char kMagic[4] = {'S', 'L', 'Z', '1'};
constexpr std::size_t kWindow = 4096;   // 12-bit offsets, 1..4095.
constexpr std::size_t kMinMatch = 3;    // shorter copies cost more
                                        // than literals.
constexpr std::size_t kMaxMatch = kMinMatch + 15; // 4-bit length field.

/** 3-byte rolling hash into the match-candidate table. */
inline std::uint32_t
hash3(const unsigned char *p)
{
    const std::uint32_t v = static_cast<std::uint32_t>(p[0])
                            | (static_cast<std::uint32_t>(p[1]) << 8)
                            | (static_cast<std::uint32_t>(p[2]) << 16);
    return (v * 2654435761u) >> 19; // 13-bit table index.
}

/** Write `v` as a uvarint at `out`; returns the byte past it. */
unsigned char *
putUvarint(unsigned char *out, std::uint64_t v)
{
    while (v >= 0x80) {
        *out++ = static_cast<unsigned char>((v & 0x7f) | 0x80);
        v >>= 7;
    }
    *out++ = static_cast<unsigned char>(v);
    return out;
}

bool
getUvarint(const std::string &in, std::size_t &pos, std::uint64_t &v)
{
    v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        if (pos >= in.size())
            return false;
        const unsigned char byte =
            static_cast<unsigned char>(in[pos++]);
        v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0)
            return true;
    }
    return false; // more than 64 bits: malformed.
}

} // namespace

std::string
lzCompress(const std::string &in)
{
    const std::size_t n = in.size();
    // The worst case is all literals: the header (magic + a uvarint of
    // at most 10 bytes), n literal bytes and one control byte per 8.
    std::string out(sizeof kMagic + 10 + n + (n + 7) / 8, '\0');
    unsigned char *const base =
        reinterpret_cast<unsigned char *>(out.data());
    std::memcpy(base, kMagic, sizeof kMagic);
    unsigned char *op = putUvarint(base + sizeof kMagic, n);

    const unsigned char *data =
        reinterpret_cast<const unsigned char *>(in.data());

    // One candidate per 3-byte hash (the newest occurrence): cheap,
    // and plenty for the protocol's repetitive JSON bodies. Entries
    // hold position + 1 (mod 2^32), so 0 means empty; a candidate is
    // only used inside the window and is verified byte by byte.
    std::uint32_t head[1u << 13] = {};

    std::size_t pos = 0;
    while (pos < n) {
        // Up to 8 tokens follow their control byte, which is patched
        // in place as the tokens are chosen.
        unsigned char *const control = op++;
        *control = 0;
        for (unsigned bit = 0; bit < 8 && pos < n; ++bit) {
            std::size_t match_len = 0;
            std::size_t match_off = 0;
            if (pos + kMinMatch <= n) {
                const std::uint32_t h = hash3(data + pos);
                const std::uint32_t here =
                    static_cast<std::uint32_t>(pos + 1);
                const std::uint32_t off = here - head[h];
                const bool seen = head[h] != 0;
                head[h] = here;
                if (seen && off < kWindow) {
                    const std::size_t cand = pos - off;
                    const std::size_t limit =
                        std::min(kMaxMatch, n - pos);
                    std::size_t len = 0;
                    while (len < limit
                           && data[cand + len] == data[pos + len])
                        ++len;
                    if (len >= kMinMatch) {
                        match_len = len;
                        match_off = off;
                    }
                }
            }
            if (match_len > 0) {
                *control |= static_cast<unsigned char>(1u << bit);
                const std::uint16_t word = static_cast<std::uint16_t>(
                    (match_off << 4)
                    | (match_len - kMinMatch));
                *op++ = static_cast<unsigned char>(word & 0xff);
                *op++ = static_cast<unsigned char>(word >> 8);
                pos += match_len;
            } else {
                *op++ = data[pos++];
            }
        }
    }
    out.resize(static_cast<std::size_t>(op - base));
    return out;
}

std::optional<std::string>
lzDecompress(const std::string &in, std::size_t max_size)
{
    if (in.size() < sizeof kMagic
        || std::memcmp(in.data(), kMagic, sizeof kMagic) != 0)
        return std::nullopt;
    std::size_t pos = sizeof kMagic;
    std::uint64_t declared = 0;
    // An n-byte stream decodes to at most ~8.5n bytes (a 17-byte
    // token group — control byte + 8 two-byte matches — yields at
    // most 144), so a declared size beyond 9n is malformed on its
    // face. Rejecting it here keeps a tiny hostile header from
    // allocating max_size bytes before the stream is ever validated.
    if (!getUvarint(in, pos, declared) || declared > max_size
        || declared > in.size() * 9)
        return std::nullopt;

    const std::size_t end = static_cast<std::size_t>(declared);
    std::string out(end, '\0');
    char *const base = out.data();
    std::size_t size = 0; // bytes decoded so far.
    while (size < end) {
        if (pos >= in.size())
            return std::nullopt; // truncated stream.
        const unsigned char control =
            static_cast<unsigned char>(in[pos++]);
        for (unsigned bit = 0; bit < 8 && size < end; ++bit) {
            if ((control & (1u << bit)) == 0) {
                if (pos >= in.size())
                    return std::nullopt;
                base[size++] = in[pos++];
                continue;
            }
            if (pos + 2 > in.size())
                return std::nullopt;
            const std::uint16_t word = static_cast<std::uint16_t>(
                static_cast<unsigned char>(in[pos])
                | (static_cast<unsigned char>(in[pos + 1]) << 8));
            pos += 2;
            const std::size_t off = word >> 4;
            const std::size_t len = (word & 0xf) + kMinMatch;
            if (off == 0 || off > size || size + len > end)
                return std::nullopt; // offset outside the window, or
                                     // a copy past the declared end.
            char *const dst = base + size;
            const char *const src = dst - off;
            if (off >= len) {
                std::memcpy(dst, src, len);
            } else {
                // The copy overlaps its own output (the classic
                // run-length case): byte by byte.
                for (std::size_t i = 0; i < len; ++i)
                    dst[i] = src[i];
            }
            size += len;
        }
    }
    if (pos != in.size())
        return std::nullopt; // trailing garbage is corruption too.
    return out;
}

} // namespace smt
