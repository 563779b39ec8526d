/**
 * @file
 * Physical-address to DRAM-coordinate decomposition.
 *
 * Bit layout (LSB first): line offset | column | channel | bank | rank |
 * row. Keeping the column bits lowest means an aligned region the size of
 * one row buffer maps to a single row — e.g. with 8KB rows and 4KB pages,
 * two spatially-adjacent physical pages share a row, exactly the layout
 * the paper's Figure 8 scheduling discussion assumes.
 */

#ifndef TEMPO_DRAM_ADDRESS_MAP_HH
#define TEMPO_DRAM_ADDRESS_MAP_HH

#include <string>

#include "common/types.hh"
#include "dram/config.hh"

namespace tempo {

/** Coordinates of one cache-line-sized DRAM access. */
struct DramCoord {
    unsigned channel;
    unsigned rank;
    unsigned bank;
    Addr row;      //!< globally-unique row id within the bank
    unsigned col;  //!< column (line index within the row)

    /** Flat bank index across the whole device. */
    unsigned flatBank(const DramConfig &cfg) const
    {
        return (channel * cfg.ranksPerChannel + rank) * cfg.banksPerRank
            + bank;
    }

    bool
    operator==(const DramCoord &other) const
    {
        return channel == other.channel && rank == other.rank
            && bank == other.bank && row == other.row
            && col == other.col;
    }
};

/** Stateless decoder from physical addresses to DRAM coordinates. */
class AddressMap
{
  public:
    explicit AddressMap(const DramConfig &cfg);

    /** Why @p cfg's geometry cannot be bit-sliced, or "" when it can.
     * The constructor asserts this; config loading reports it as an
     * input error. */
    static std::string geometryError(const DramConfig &cfg);

    /** Decode a physical (byte) address. */
    DramCoord decode(Addr paddr) const;

    /** True iff two physical addresses fall in the same row of the same
     * bank (i.e. the second enjoys a row-buffer hit after the first). */
    bool sameRow(Addr a, Addr b) const;

    /** Sub-row segment index of an address: which 1/N-th of the row it
     * falls into, for @p sub_rows sub-row buffers per bank. */
    unsigned segment(Addr paddr, unsigned sub_rows) const;

    /** segment() for a caller that already decoded the column — skips
     * re-decoding the whole address. */
    unsigned segmentOfCol(unsigned col, unsigned sub_rows) const;

  private:
    unsigned colBits_;
    unsigned channelBits_;
    unsigned bankBits_;
    unsigned rankBits_;
    unsigned channels_;
    unsigned banks_;
    unsigned ranks_;
    Addr rowBytes_;
};

} // namespace tempo

#endif // TEMPO_DRAM_ADDRESS_MAP_HH
