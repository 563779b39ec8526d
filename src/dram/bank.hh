/**
 * @file
 * One DRAM bank: row-buffer (or sub-row-buffer) state plus bank timing.
 *
 * A bank services one access at a time (readyAt gating). The row buffer is
 * either monolithic (one Slot) or split into sub-row buffers (Gulur et
 * al.), where each Slot caches a 1/N segment of some row and TEMPO may
 * reserve the first K slots for its prefetches.
 *
 * TEMPO's "anticipation delay" and "grace period" (paper Sec. 4.3) are
 * modeled with per-slot holds: a held slot is not closed by the policy and
 * delays any access that would evict it until the hold expires.
 */

#ifndef TEMPO_DRAM_BANK_HH
#define TEMPO_DRAM_BANK_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "dram/config.hh"
#include "dram/row_policy.hh"

namespace tempo {

/**
 * Observer for row-buffer transitions. The memory controller's indexed
 * transaction queue subscribes so its per-bank row-hit lookaside tracks
 * exactly the rows a scheduler-time wouldHit() would see: a slot counts
 * as open from the activation inside access() until the precharge that
 * closes it (policy close, conflict eviction, or refresh).
 */
class RowTransitionListener
{
  public:
    virtual ~RowTransitionListener() = default;
    virtual void rowOpened(unsigned flat_bank, Addr row,
                           unsigned segment) = 0;
    virtual void rowClosed(unsigned flat_bank, Addr row,
                           unsigned segment) = 0;
};

/** What the row buffer did for an access. */
enum class RowEvent : std::uint8_t {
    Hit,      //!< requested data already latched
    Miss,     //!< bank was precharged; one ACT needed
    Conflict, //!< another row occupied the buffer; PRE + ACT needed
};

/** Per-device DRAM energy event counters. */
struct EnergyCounters {
    std::uint64_t activates = 0;
    std::uint64_t precharges = 0;
    std::uint64_t colReads = 0;
    std::uint64_t colWrites = 0;
    std::uint64_t refreshes = 0;

    void
    merge(const EnergyCounters &other)
    {
        activates += other.activates;
        precharges += other.precharges;
        colReads += other.colReads;
        colWrites += other.colWrites;
        refreshes += other.refreshes;
    }
};

/** Outcome of Bank::access(). */
struct BankAccess {
    RowEvent event;
    Cycle start;    //!< when the bank began servicing
    Cycle complete; //!< when the data burst finishes
};

class Bank
{
  public:
    /**
     * @param cfg device configuration
     * @param bank_id flat bank index (used to salt predictor keys)
     * @param policy shared row policy/predictor (owned by the device)
     */
    Bank(const DramConfig &cfg, unsigned bank_id, RowPolicy *policy);

    /** Why @p cfg's refresh or sub-row buffers cannot work, or "" when
     * they can. The constructor asserts this; config loading reports it
     * as an input error. */
    static std::string configError(const DramConfig &cfg);

    /** Would an access to (row, segment) be a row-buffer hit now? */
    bool wouldHit(Addr row, unsigned segment) const;

    /** Earliest cycle the bank can begin a new access. */
    Cycle readyAt() const { return readyAt_; }

    /**
     * Perform an access.
     *
     * @param row row id within this bank
     * @param segment sub-row segment (ignored for monolithic buffers)
     * @param is_write column write rather than read
     * @param is_prefetch TEMPO prefetch (routed to dedicated sub-rows)
     * @param app requesting application (sub-row ownership)
     * @param when earliest start time (scheduler pick time)
     * @param hold_for keep the row open at least this long after
     *        completion, overriding the close policy (0 = policy decides)
     * @param energy event counters to charge
     */
    BankAccess access(Addr row, unsigned segment, bool is_write,
                      bool is_prefetch, AppId app, Cycle when,
                      Cycle hold_for, EnergyCounters &energy);

    /** Number of row-buffer slots (1 for monolithic). */
    unsigned numSlots() const { return static_cast<unsigned>(
            slots_.size()); }

    /** Row currently open in slot @p i, or kInvalidAddr. */
    Addr openRow(unsigned i) const;

    /** Subscribe to row open/close transitions (nullptr detaches). */
    void setListener(RowTransitionListener *listener)
    {
        listener_ = listener;
    }

    /** Invoke @p fn(row, segment) for each currently-latched slot, so a
     * listener attached mid-run can synchronize its open-row view. */
    void visitOpenSlots(
        const std::function<void(Addr, unsigned)> &fn) const;

  private:
    struct Slot {
        bool valid = false;
        Addr row = 0;
        unsigned segment = 0;
        AppId owner = 0;
        Cycle lastUse = 0;
        Cycle holdUntil = 0;
        Cycle actAt = 0;          //!< when this row was activated
        unsigned hitsWhileOpen = 0;
    };

    /** Find a slot currently latching (row, segment); nullptr if none. */
    Slot *findSlot(Addr row, unsigned segment);
    const Slot *findSlot(Addr row, unsigned segment) const;

    /** Pick the victim slot for a new activation. */
    Slot *pickVictim(bool is_prefetch, AppId app);

    /** Predictor key unique across banks. */
    Addr predictorKey(Addr row) const;

    /** Close @p slot at cycle @p when (counts a precharge, informs the
     * policy, records the row-close trace event). */
    void closeSlot(Slot &slot, Cycle when, EnergyCounters &energy);

    /** Apply any refreshes due before @p when: rows close, the bank is
     * unavailable for tRFC per refresh. */
    void applyRefresh(Cycle when, EnergyCounters &energy);

    const DramConfig &cfg_;
    unsigned bankId_;
    RowPolicy *policy_;
    RowTransitionListener *listener_ = nullptr;
    std::vector<Slot> slots_;
    Cycle readyAt_ = 0;
    Cycle nextRefreshAt_ = 0;
};

} // namespace tempo

#endif // TEMPO_DRAM_BANK_HH
