#include "format.hh"

#include <cstring>
#include <fstream>
#include <stdexcept>

namespace wlcrc::tracefile
{

bool
rangeHasResidue(uint64_t minAddr, uint64_t maxAddr, unsigned mod,
                unsigned residue)
{
    if (mod <= 1)
        return true;
    // A range spanning >= mod consecutive addresses hits every
    // residue class.
    if (maxAddr - minAddr >= mod - 1)
        return true;
    // Otherwise the residues covered form the cyclic interval
    // [minAddr % mod, maxAddr % mod].
    const unsigned lo = static_cast<unsigned>(minAddr % mod);
    const unsigned hi = static_cast<unsigned>(maxAddr % mod);
    if (lo <= hi)
        return lo <= residue && residue <= hi;
    return residue >= lo || residue <= hi; // wrapped interval
}

const char *
codecName(BlockCodec c)
{
    switch (c) {
    case BlockCodec::raw:
        return "raw";
    case BlockCodec::lz:
        return "lz";
    }
    return "?";
}

BlockCodec
parseCodecName(const std::string &name)
{
    if (name == "raw")
        return BlockCodec::raw;
    if (name == "lz")
        return BlockCodec::lz;
    throw std::invalid_argument("unknown block codec: " + name +
                                " (expected raw or lz)");
}

const char *
formatName(TraceFormat f)
{
    switch (f) {
    case TraceFormat::v1:
        return "v1";
    case TraceFormat::v2:
        return "v2";
    case TraceFormat::v3:
        return "v3";
    }
    return "?";
}

TraceFormat
detectFormat(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("trace: cannot open " + path);
    char got[8];
    if (!in.read(got, sizeof(got)))
        throw std::runtime_error(
            "trace: " + path + " is too short to hold a trace magic");
    if (std::memcmp(got, magicV1, sizeof(magicV1)) == 0)
        return TraceFormat::v1;
    if (std::memcmp(got, magicV2, sizeof(magicV2)) == 0)
        return TraceFormat::v2;
    if (std::memcmp(got, magicV3, sizeof(magicV3)) == 0)
        return TraceFormat::v3;
    throw std::runtime_error(
        "trace: " + path +
        " starts with no known trace magic (WLCTRC01/02/03)");
}

} // namespace wlcrc::tracefile
