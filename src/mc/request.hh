/**
 * @file
 * Memory requests as seen by the memory controller.
 *
 * A leaf page-table request may carry a TEMPO tag: the paper's hardware
 * appends the replay's cache-line index to the walker's request and the
 * Prefetch Engine later combines it with the physical page number read
 * from the PTE (Sec. 4.1). In the simulator the page-table model resolves
 * the PTE at request-creation time, so the tag carries the final replay
 * physical address directly; the two-slot transaction-queue encoding is
 * accounted for in the occupancy statistics.
 */

#ifndef TEMPO_MC_REQUEST_HH
#define TEMPO_MC_REQUEST_HH

#include <cstdint>

#include "common/inline_function.hh"
#include "common/types.hh"

namespace tempo {

/** Who generated a memory request. */
enum class ReqKind : std::uint8_t {
    Regular,       //!< demand access after a TLB hit
    Replay,        //!< demand access replayed after a page table walk
    PtWalk,        //!< page table walker reference
    TempoPrefetch, //!< TEMPO's post-translation prefetch
    ImpPrefetch,   //!< indirect memory prefetcher traffic
    Writeback,     //!< dirty-line eviction from the LLC
};

inline const char *
reqKindName(ReqKind kind)
{
    switch (kind) {
      case ReqKind::Regular: return "regular";
      case ReqKind::Replay: return "replay";
      case ReqKind::PtWalk: return "pt_walk";
      case ReqKind::TempoPrefetch: return "tempo_prefetch";
      case ReqKind::ImpPrefetch: return "imp_prefetch";
      case ReqKind::Writeback: return "writeback";
    }
    return "?";
}

inline bool
isPrefetchKind(ReqKind kind)
{
    return kind == ReqKind::TempoPrefetch || kind == ReqKind::ImpPrefetch;
}

/** TEMPO trigger information attached to leaf page-table requests. */
struct TempoTag {
    bool tagged = false;      //!< walker marked this as a leaf PT access
    bool pteValid = false;    //!< false = page fault: must not prefetch
    Addr replayPaddr = kInvalidAddr; //!< line the replay will fetch
};

/** Result handed to the requester on completion. */
struct MemResult {
    Cycle complete;       //!< data available at the controller
    Cycle queueDelay;     //!< cycles spent waiting in the Tx Q
    std::uint8_t rowEvent; //!< RowEvent as integer (hit/miss/conflict)
};

/** Inline capture capacity for completion callbacks: the simulator's
 * (this, record index, submit cycle) captures need kHotCaptureBytes;
 * the rest leaves room for a test or bench harness capturing four
 * words. Larger captures fall back to the heap. */
inline constexpr std::size_t kCompletionInlineBytes = 32;

/** One request into the memory controller. Move-only: the completion
 * callback is an InlineFunction, so queuing and dispatching a request
 * never heap-allocates for typical captures. */
struct MemRequest {
    Addr paddr = 0;
    bool isWrite = false;
    ReqKind kind = ReqKind::Regular;
    AppId app = 0;
    TempoTag tempo;

    /** Observability walk id this request belongs to (0 = none). Lets
     * the trace recorder join MC and DRAM events back to the walk that
     * caused them; carried but otherwise ignored by the controller. */
    std::uint64_t walkId = 0;

    /** Invoked when the access completes (may be empty). */
    InlineFunction<void(const MemResult &), kCompletionInlineBytes>
        onComplete;
};

/** A request sitting in a channel's transaction queue. */
struct QueuedRequest {
    MemRequest req;
    Cycle arrival = 0;
    std::uint64_t seq = 0; //!< global submission order (age tie-break)
};

} // namespace tempo

#endif // TEMPO_MC_REQUEST_HH
