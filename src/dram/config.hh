/**
 * @file
 * DRAM device geometry, timing, and energy parameters.
 *
 * Timing values are expressed in *core* clock cycles (we simulate a single
 * clock domain). Defaults model a DDR3-class part behind a ~4GHz core:
 * row-buffer hits land at ~15ns and conflicts at ~37ns, matching the
 * 10-15ns vs 30-50ns split quoted in the paper (Sec. 2.3).
 */

#ifndef TEMPO_DRAM_CONFIG_HH
#define TEMPO_DRAM_CONFIG_HH

#include "common/types.hh"

namespace tempo {

/** Row-buffer management strategy (paper Sec. 4.3). */
enum class RowPolicyKind : std::uint8_t {
    Open,     //!< leave rows open until a conflict forces a precharge
    Closed,   //!< precharge immediately after every access
    Adaptive, //!< prediction-cache driven (Awasthi et al., PACT 2011)
};

/** The spelling of each RowPolicyKind, in enum order: config keys,
 * reports and benches all use these names. */
inline constexpr const char *kRowPolicyNames[] = {"open", "closed",
                                                  "adaptive"};
static_assert(std::size(kRowPolicyNames)
              == static_cast<std::size_t>(RowPolicyKind::Adaptive) + 1);

inline const char *
rowPolicyName(RowPolicyKind kind)
{
    return kRowPolicyNames[static_cast<unsigned>(kind)];
}

/** Sub-row buffer allocation policy (Gulur et al., ICS 2012). */
enum class SubRowAlloc : std::uint8_t {
    None, //!< single monolithic row buffer per bank
    FOA,  //!< Fairness Oriented Allocation: per-app partitions
    POA,  //!< Performance Oriented Allocation: demand-proportional
};

/** The spelling of each SubRowAlloc, in enum order. */
inline constexpr const char *kSubRowAllocNames[] = {"none", "foa", "poa"};
static_assert(std::size(kSubRowAllocNames)
              == static_cast<std::size_t>(SubRowAlloc::POA) + 1);

inline const char *
subRowAllocName(SubRowAlloc alloc)
{
    return kSubRowAllocNames[static_cast<unsigned>(alloc)];
}

/** Full DRAM configuration. */
struct DramConfig {
    unsigned channels = 2;
    unsigned ranksPerChannel = 1;
    unsigned banksPerRank = 8;

    /** Bytes latched per activation (per paper: 8KB rows). */
    Addr rowBufferBytes = 8192;

    /** Row-buffer management policy. */
    RowPolicyKind rowPolicy = RowPolicyKind::Adaptive;

    /** Sub-row buffering: None keeps one full-row buffer per bank. */
    SubRowAlloc subRowAlloc = SubRowAlloc::None;
    unsigned subRowCount = 8;          //!< sub-row buffers per bank
    unsigned subRowsForPrefetch = 0;   //!< dedicated to TEMPO prefetches

    // --- Timing (core cycles; ~4GHz core vs DDR3-1600-class part) ---
    Cycle tRCD = 44;    //!< ACT to column command
    Cycle tRP = 44;     //!< PRECHARGE
    Cycle tCAS = 44;    //!< column access strobe
    Cycle tBurst = 16;  //!< data burst occupancy of the channel bus
    Cycle tRAS = 112;   //!< minimum ACT-to-PRECHARGE

    // --- Refresh (per bank; DDR3-class 7.8us tREFI, 350ns tRFC) ---
    bool refreshEnabled = true;
    Cycle tREFI = 31200; //!< refresh interval
    Cycle tRFC = 1400;   //!< refresh cycle time (bank unavailable)

    // --- Energy per event (normalized units; relative weights matter) ---
    double eAct = 2.0;
    double ePre = 1.5;
    double eColRead = 1.2;
    double eColWrite = 1.4;
    double eRefresh = 8.0;
    /** Background (static) power per core cycle for the whole device. */
    double pStatic = 0.02;

    /** Adaptive policy prediction cache geometry (paper Sec. 5). */
    unsigned predictorSets = 2048;
    unsigned predictorWays = 4;

    unsigned totalBanks() const { return channels * ranksPerChannel
            * banksPerRank; }

    /** Latency of a row-buffer hit (column access + burst). */
    Cycle hitLatency() const { return tCAS + tBurst; }
    /** Latency when the bank was precharged (row closed). */
    Cycle missLatency() const { return tRCD + tCAS + tBurst; }
    /** Latency when another row occupies the buffer. */
    Cycle conflictLatency() const { return tRP + tRCD + tCAS + tBurst; }
};

} // namespace tempo

#endif // TEMPO_DRAM_CONFIG_HH
