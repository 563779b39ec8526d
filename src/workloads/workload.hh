/**
 * @file
 * Workload trace generators.
 *
 * The paper collects Pin traces of real 3-4TB applications; we substitute
 * deterministic generators that reproduce each application's *memory
 * access signature* — touched footprint, pointer-chasing vs. streaming
 * mix, reuse skew, and indirection structure. TEMPO's behaviour depends
 * only on these properties (TLB miss rate, leaf-PTE reuse, replay
 * locality), so the signatures are what must be faithful, not the
 * computation.
 *
 * Each generator emits an endless stream of MemRef records. Indirect
 * (A[B[i]]) references also carry the address the stream will touch
 * `impDistance` iterations ahead, feeding the IMP prefetcher model.
 */

#ifndef TEMPO_WORKLOADS_WORKLOAD_HH
#define TEMPO_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <array>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace tempo {

/** One trace record: a memory instruction's data reference. */
struct MemRef {
    Addr vaddr = 0;
    bool isWrite = false;
    /** Stream id for the IMP model (which access stream this belongs
     * to); 0 = no stream. */
    std::uint32_t stream = 0;
    /** True when the reference follows an indirect A[B[i]] pattern. */
    bool indirect = false;
    /** For indirect refs: the vaddr this stream touches `impDistance`
     * iterations ahead (kInvalidAddr if unknown). */
    Addr indirectFuture = kInvalidAddr;
};

/** Abstract trace generator. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Short name, matching the paper's workload labels. */
    virtual const std::string &name() const = 0;

    /** Produce the next trace record. */
    virtual MemRef next() = 0;

    /** Nominal touched footprint in bytes (sizing documentation). */
    virtual Addr footprintBytes() const = 0;

    /** Suggested memory-level-parallelism window for this workload. */
    virtual unsigned mlpHint() const { return 8; }
};

/** Lookahead distance generators use for MemRef::indirectFuture. */
inline constexpr unsigned kImpDistance = 16;

/**
 * Helper base class: a virtual-address region plus a ring buffer that
 * turns any deterministic index stream into (current, +distance ahead)
 * pairs for IMP.
 */
class RegionWorkload : public Workload
{
  public:
    RegionWorkload(std::string name, Addr va_base, Addr footprint,
                   std::uint64_t seed);

    const std::string &name() const override { return name_; }
    Addr footprintBytes() const override { return footprint_; }

  protected:
    /** A random byte address within [vaBase, vaBase+footprint). */
    Addr randomInRegion();

    /** Address of element @p index in an array of @p stride -byte
     * elements starting at offset @p base_off within the region. */
    Addr
    element(Addr base_off, Addr index, Addr stride) const
    {
        return vaBase_ + base_off + index * stride;
    }

    std::string name_;
    Addr vaBase_;
    Addr footprint_;
    Rng rng_;
};

/**
 * Helper for indirect (A[B[i]]) streams: buffers a deterministic target
 * generator so each emitted reference also knows the target kImpDistance
 * iterations ahead — the information a trained IMP computes from the
 * index array contents. The look-ahead is a fixed ring, so emitting a
 * target never allocates.
 */
class IndirectStream
{
  public:
    template <typename Gen>
    explicit IndirectStream(Gen gen) : gen_(std::move(gen))
    {
    }

    /** Next (current target, target kImpDistance ahead) pair. */
    std::pair<Addr, Addr>
    next()
    {
        if (!primed_) { // the generator may read members not built yet
            for (Addr &target : ring_)
                target = gen_();
            primed_ = true;
        }
        const Addr ahead = gen_();
        const Addr current = ring_[head_];
        ring_[head_] = ahead;
        head_ = (head_ + 1) % kImpDistance;
        return {current, ahead};
    }

  private:
    std::function<Addr()> gen_;
    std::array<Addr, kImpDistance> ring_{}; //!< the oldest at head_
    unsigned head_ = 0;
    bool primed_ = false;
};

/** Factory: construct the named workload ("mcf", "xsbench", ...). */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

/** The paper's eight big-data workloads (Fig. 1/4/10-15 x-axes). */
const std::vector<std::string> &bigDataWorkloadNames();

/** Small-footprint Spec/Parsec-style workloads (Fig. 11 right). */
const std::vector<std::string> &smallWorkloadNames();

} // namespace tempo

#endif // TEMPO_WORKLOADS_WORKLOAD_HH
