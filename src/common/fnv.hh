/**
 * @file
 * The one FNV-1a 64-bit hash. Config digests, point digests, manifest
 * names and the fabric workers' scan offsets all hash through it, and
 * shard records and manifests on disk are keyed by those values, so
 * what each caller feeds in, and in which order, must not change.
 */

#ifndef TEMPO_COMMON_FNV_HH
#define TEMPO_COMMON_FNV_HH

#include <bit>
#include <cstddef>
#include <cstdint>

namespace tempo {

/** FNV-1a accumulator. Integers are hashed as their 8 host-order bytes
 * and doubles by bit pattern, so any representable change to an input
 * changes the hash and equal inputs always agree. */
struct Fnv1a {
    std::uint64_t state = 1469598103934665603ull;

    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            state ^= p[i];
            state *= 1099511628211ull;
        }
    }

    void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }

    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    template <typename E>
    void
    e(E v)
    {
        u64(static_cast<std::uint64_t>(v));
    }
};

} // namespace tempo

#endif // TEMPO_COMMON_FNV_HH
