/**
 * @file
 * The packed associative tag-array core shared by the data caches
 * (cache/set_assoc.hh) and the TLB / MMU-cache arrays
 * (vm/assoc_array.hh).
 *
 * Layout is structure-of-arrays, tuned so one set probe touches one
 * host cache line of metadata instead of a strided walk over
 * array-of-struct entries:
 *
 *  - all per-set metadata lives in a single 64-byte, line-aligned
 *    block: 16-bit partial tags (four to a 64-bit word) scanned with
 *    a branch-free SWAR zero-lane match, valid and dirty as 16-way
 *    bitmasks, the LRU rank word, and the MRU way;
 *  - the MRU way is probed first (one load + compare): set probes are
 *    heavily biased toward the most recently used line, and find()
 *    has no side effects, so the shortcut cannot change behaviour;
 *  - full 64-bit tags in their own flat array, read only on a
 *    candidate hit and on victim reconstruction;
 *  - true LRU as a packed per-set rank word: one byte lane per way
 *    holding the way's recency rank (0 = LRU .. assoc-1 = MRU). A hit
 *    promotes in O(1): every lane ranked above the hit way is
 *    decremented with one SWAR compare-and-subtract, then the hit
 *    lane is set to MRU. This replaces the reference implementation's
 *    per-line 8-byte lastUse timestamp and global tick counter.
 *
 * Because the rank word is only ever permuted (promotion preserves the
 * relative order of all other ways), rank order always equals
 * promotion-recency order, and the victim sequence is exactly the
 * reference's true-LRU sequence. Which *physical* way holds a tag is
 * unobservable through the public API (victims are reconstructed from
 * tag + set), so hit/miss/victim streams — and therefore every
 * simulator statistic — are byte-identical to the linear-scan path in
 * set_assoc.cc / assoc_array.hh.
 *
 * Geometry: power-of-two set counts and at most kMaxWays ways. Wider
 * arrays (and any future non-pow2 geometry) automatically take the
 * linear-scan path, per instance.
 */

#ifndef TEMPO_CACHE_TAG_ARRAY_HH
#define TEMPO_CACHE_TAG_ARRAY_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace tempo {

/**
 * Cache/TLB tag-array implementation selection, settable only from
 * code: no INI key, CLI flag or environment variable reaches it.
 * Hit/miss/victim sequences are identical on both paths by
 * construction (the packed path is order-equivalent true LRU), so this
 * knob is stats-neutral and stays out of SystemConfig::digest().
 */
struct CacheConfig {
    /** Force every SetAssocCache and AssocArray built from this config
     * onto the linear-scan path, as a differential-testing oracle
     * (tag_array_test, CacheByteIdentity, bench/perf_cache). */
    bool useReferenceCache = false;
};

class TagArray
{
  private:
    /** One set's complete metadata: exactly one host cache line. The
     * MRU way's full tag is cached here so the most common probe —
     * hit the most recently used line again — touches only this
     * line. */
    struct alignas(64) SetMeta {
        std::uint64_t ptag[4] = {};  //!< 16 x 16-bit partial tags
        std::uint64_t rank[2] = {};  //!< 16 x 8-bit LRU ranks
        std::uint64_t mruTag = 0;    //!< full tag of the MRU way
        std::uint16_t valid = 0;
        std::uint16_t dirty = 0;
        std::uint8_t mru = 0;        //!< last promoted way
    };
    static_assert(sizeof(SetMeta) == 64);

  public:
    /** 16 partial-tag lanes and 16 rank lanes fill the 64-byte
     * per-set metadata block, so 16 ways is the packed ceiling. */
    static constexpr unsigned kMaxWays = 16;

    static bool
    packable(unsigned sets, unsigned assoc)
    {
        return isPow2(sets) && assoc >= 1 && assoc <= kMaxWays;
    }

    TagArray() = default;

    TagArray(unsigned sets, unsigned assoc)
        : sets_(sets), assoc_(assoc),
          words_(static_cast<std::uint8_t>((assoc + 3) / 4))
    {
        // Padding lanes hold 0x7f: never promoted (masked out of the
        // compare), never zero (invisible to the LRU zero-byte scan).
        for (unsigned w = 0; w < kMaxWays; ++w) {
            const std::uint64_t lane = w < assoc_ ? w : 0x7f;
            init_.rank[w >> 3] |= lane << (8 * (w & 7));
        }
        for (unsigned w = 0; w < assoc_; ++w)
            rankHi_[w >> 3] |= std::uint64_t{0x80} << (8 * (w & 7));
        meta_.assign(sets_, init_);
        tags_.assign(static_cast<std::size_t>(sets_) * assoc_, 0);
    }

    /** Way holding @p tag in @p set, or -1. No LRU update, no stats. */
    int
    find(unsigned set, std::uint64_t tag) const
    {
        const SetMeta &s = meta_[set];
        const std::uint64_t *stags =
            &tags_[static_cast<std::size_t>(set) * assoc_];
        // The confirm loads depend on the SWAR scan of the metadata
        // block; kick off the (independent) tag-line fetch now so the
        // two host cache misses overlap instead of serializing.
        prefetchLine(stags);
        // MRU shortcut: the most recently promoted way is by far the
        // likeliest hit, and its full tag is cached in the metadata
        // block, so this settles without touching the tag array.
        if (s.mruTag == tag && ((s.valid >> s.mru) & 1))
            return static_cast<int>(s.mru);
        const std::uint64_t lanes = kLaneOnes * partialTag(tag);
        // words_ is fixed per instance, so these branches predict
        // perfectly and each arm is straight-line SWAR code. The
        // common case — no lane matches — needs no loads beyond the
        // metadata block and no candidate bookkeeping at all.
        switch (words_) {
          case 1:
            return confirm(s, stags, tag,
                           zeroLanes(s.ptag[0] ^ lanes), 0);
          case 2: {
            const std::uint64_t z0 = zeroLanes(s.ptag[0] ^ lanes);
            if (z0) {
                const int way = confirm(s, stags, tag, z0, 0);
                if (way >= 0)
                    return way;
            }
            return confirm(s, stags, tag,
                           zeroLanes(s.ptag[1] ^ lanes), 4);
          }
          default:
            for (unsigned i = 0; i < words_; ++i) {
                const std::uint64_t z =
                    zeroLanes(s.ptag[i] ^ lanes);
                if (z) {
                    const int way = confirm(s, stags, tag, z, 4 * i);
                    if (way >= 0)
                        return way;
                }
            }
            return -1;
        }
    }

    /** Promote @p way — which holds @p tag — to MRU in O(1). */
    void
    promote(unsigned set, unsigned way, std::uint64_t tag)
    {
        SetMeta &m = meta_[set];
        m.mru = static_cast<std::uint8_t>(way);
        m.mruTag = tag;
        const unsigned shift = 8 * (way & 7);
        const std::uint64_t r = (m.rank[way >> 3] >> shift) & 0xff;
        const std::uint64_t mru_rank = assoc_ - 1;
        if (r == mru_rank)
            return;
        // Demote every way ranked above r by one. Lane values are
        // <= 0x7f, so v + (127 - r) overflows bit 7 exactly when
        // v > r and never carries into the next lane.
        const std::uint64_t k = (127 - r) * kByteOnes;
        m.rank[0] -= ((m.rank[0] + k) & rankHi_[0]) >> 7;
        if (assoc_ > 8)
            m.rank[1] -= ((m.rank[1] + k) & rankHi_[1]) >> 7;
        m.rank[way >> 3] =
            (m.rank[way >> 3] & ~(std::uint64_t{0xff} << shift))
            | (mru_rank << shift);
    }

    /**
     * Replacement choice: an invalid way if one exists, else the
     * rank-0 (true LRU) way. As in the reference scan, which invalid
     * way gets filled is unobservable, so the lowest is used.
     */
    unsigned
    victimWay(unsigned set) const
    {
        const SetMeta &m = meta_[set];
        const unsigned inv = static_cast<unsigned>(~m.valid & 0xffffu)
                             & ((1u << assoc_) - 1);
        if (inv)
            return static_cast<unsigned>(std::countr_zero(inv));
        // All ways valid: the rank word is a permutation of
        // 0..assoc-1, so exactly one real lane is zero. Scan low word
        // first — borrow-induced false positives only appear above a
        // true zero lane, so the lowest hit is exact.
        const std::uint64_t z0 = (m.rank[0] - kByteOnes) & ~m.rank[0]
                                 & rankHi_[0];
        if (z0)
            return static_cast<unsigned>(std::countr_zero(z0)) >> 3;
        const std::uint64_t z1 = (m.rank[1] - kByteOnes) & ~m.rank[1]
                                 & rankHi_[1];
        return 8 + (static_cast<unsigned>(std::countr_zero(z1)) >> 3);
    }

    bool
    validWay(unsigned set, unsigned way) const
    {
        return (meta_[set].valid >> way) & 1;
    }

    bool
    dirtyWay(unsigned set, unsigned way) const
    {
        return (meta_[set].dirty >> way) & 1;
    }

    std::uint64_t
    tagOfWay(unsigned set, unsigned way) const
    {
        return tags_[static_cast<std::size_t>(set) * assoc_ + way];
    }

    void
    markDirtyWay(unsigned set, unsigned way)
    {
        meta_[set].dirty |= static_cast<std::uint16_t>(1u << way);
    }

    /** Install @p tag into @p way (overwriting any victim's state,
     * including its dirty bit) and promote it to MRU. */
    void
    install(unsigned set, unsigned way, std::uint64_t tag, bool dirty)
    {
        tags_[static_cast<std::size_t>(set) * assoc_ + way] = tag;
        SetMeta &m = meta_[set];
        const unsigned shift = 16 * (way & 3);
        std::uint64_t &word = m.ptag[way >> 2];
        word = (word & ~(std::uint64_t{0xffff} << shift))
               | (static_cast<std::uint64_t>(partialTag(tag)) << shift);
        m.valid |= static_cast<std::uint16_t>(1u << way);
        m.dirty = static_cast<std::uint16_t>(
            (m.dirty & ~(1u << way))
            | (static_cast<unsigned>(dirty) << way));
        promote(set, way, tag);
    }

    /** Drop @p way; returns whether the dropped line was dirty (the
     * caller owns the lost-writeback decision). Ranks are untouched —
     * invalid lanes are skipped by victimWay() and re-promoted on
     * refill, so the permutation invariant holds. */
    bool
    invalidateWay(unsigned set, unsigned way)
    {
        SetMeta &m = meta_[set];
        const bool was_dirty = (m.dirty >> way) & 1;
        m.valid &= static_cast<std::uint16_t>(~(1u << way));
        m.dirty &= static_cast<std::uint16_t>(~(1u << way));
        return was_dirty;
    }

    void
    reset()
    {
        meta_.assign(sets_, init_);
        tags_.assign(tags_.size(), 0);
    }

    unsigned sets() const { return sets_; }
    unsigned assoc() const { return assoc_; }

  private:
    static constexpr std::uint64_t kLaneOnes = 0x0001000100010001ull;
    static constexpr std::uint64_t kLaneHighs = 0x8000800080008000ull;
    static constexpr std::uint64_t kByteOnes = 0x0101010101010101ull;

    static void
    prefetchLine(const void *p)
    {
#if defined(__GNUC__) || defined(__clang__)
        __builtin_prefetch(p, 0, 3);
#else
        (void)p;
#endif
    }

    /** SWAR zero-lane detect: bit 15+16k set iff 16-bit lane k of
     * @p x is zero. Borrows across lanes can only add false
     * positives; the caller's full-tag confirm rejects them. */
    static std::uint64_t
    zeroLanes(std::uint64_t x)
    {
        return (x - kLaneOnes) & ~x & kLaneHighs;
    }

    /** Check @p z's candidate lanes (ways @p base..base+3) against
     * the full tags; -1 if none survives. */
    int
    confirm(const SetMeta &s, const std::uint64_t *stags,
            std::uint64_t tag, std::uint64_t z, unsigned base) const
    {
        while (z) {
            // Lane k's detect bit sits at 15 + 16k.
            const unsigned way =
                base
                + (static_cast<unsigned>(std::countr_zero(z)) >> 4);
            if (((s.valid >> way) & 1) && stags[way] == tag)
                return static_cast<int>(way);
            z &= z - 1;
        }
        return -1;
    }

    /** 16-bit partial tag: a multiplicative fold of all 64 tag bits.
     * Distinct tags may collide (the full-tag confirm settles it);
     * the fold just has to keep collisions rare. */
    static std::uint16_t
    partialTag(std::uint64_t tag)
    {
        return static_cast<std::uint16_t>(
            (tag * 0x9e3779b97f4a7c15ull) >> 48);
    }

    unsigned sets_ = 0;
    unsigned assoc_ = 0;
    std::uint8_t words_ = 0; //!< partial-tag words per set
    std::uint64_t rankHi_[2] = {0, 0};
    SetMeta init_;
    std::vector<SetMeta> meta_;
    std::vector<std::uint64_t> tags_; //!< full tags, set-major
};

} // namespace tempo

#endif // TEMPO_CACHE_TAG_ARRAY_HH
