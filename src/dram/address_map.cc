#include "dram/address_map.hh"

#include "common/log.hh"

namespace tempo {

AddressMap::AddressMap(const DramConfig &cfg)
    : channels_(cfg.channels),
      banks_(cfg.banksPerRank),
      ranks_(cfg.ranksPerChannel),
      rowBytes_(cfg.rowBufferBytes)
{
    const std::string error = geometryError(cfg);
    TEMPO_ASSERT(error.empty(), error);
    colBits_ = log2Exact(cfg.rowBufferBytes / kLineBytes);
    channelBits_ = log2Exact(cfg.channels);
    bankBits_ = log2Exact(cfg.banksPerRank);
    rankBits_ = log2Exact(cfg.ranksPerChannel);
}

std::string
AddressMap::geometryError(const DramConfig &cfg)
{
    if (!isPow2(cfg.channels) || !isPow2(cfg.ranksPerChannel)
        || !isPow2(cfg.banksPerRank))
        return "channels, ranks and banks must be powers of 2, got "
            + std::to_string(cfg.channels) + ", "
            + std::to_string(cfg.ranksPerChannel) + " and "
            + std::to_string(cfg.banksPerRank);
    if (!isPow2(cfg.rowBufferBytes) || cfg.rowBufferBytes < kLineBytes)
        return "row_bytes must be a power of 2 of at least one line, got "
            + std::to_string(cfg.rowBufferBytes);
    return {};
}

DramCoord
AddressMap::decode(Addr paddr) const
{
    Addr bits = paddr >> log2Exact(kLineBytes);
    DramCoord coord{};
    coord.col = static_cast<unsigned>(bits & ((1ull << colBits_) - 1));
    bits >>= colBits_;
    coord.channel = static_cast<unsigned>(bits & (channels_ - 1));
    bits >>= channelBits_;
    coord.bank = static_cast<unsigned>(bits & (banks_ - 1));
    bits >>= bankBits_;
    coord.rank = static_cast<unsigned>(bits & (ranks_ - 1));
    bits >>= rankBits_;
    coord.row = bits;
    return coord;
}

bool
AddressMap::sameRow(Addr a, Addr b) const
{
    const DramCoord ca = decode(a);
    const DramCoord cb = decode(b);
    return ca.channel == cb.channel && ca.rank == cb.rank
        && ca.bank == cb.bank && ca.row == cb.row;
}

unsigned
AddressMap::segment(Addr paddr, unsigned sub_rows) const
{
    return segmentOfCol(decode(paddr).col, sub_rows);
}

unsigned
AddressMap::segmentOfCol(unsigned col, unsigned sub_rows) const
{
    TEMPO_ASSERT(sub_rows > 0 && isPow2(sub_rows),
                 "sub-row count must be a nonzero power of two");
    const unsigned cols_per_segment =
        static_cast<unsigned>((rowBytes_ / kLineBytes) / sub_rows);
    return col / cols_per_segment;
}

} // namespace tempo
