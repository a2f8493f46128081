/** @file Unit tests for the SPE local store. */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <vector>

#include "sim/logging.hh"
#include "spe/local_store.hh"

using namespace cellbw;

namespace
{

struct LsFixture : public ::testing::Test
{
    sim::EventQueue eq;
    spe::LocalStoreParams params;

    std::unique_ptr<spe::LocalStore> make()
    {
        return std::make_unique<spe::LocalStore>("ls", eq, params);
    }
};

} // namespace

TEST_F(LsFixture, SizeIs256K)
{
    auto ls = make();
    EXPECT_EQ(ls->size(), 256u * 1024u);
}

TEST_F(LsFixture, DataRoundTrips)
{
    auto ls = make();
    const char msg[] = "synergistic";
    ls->write(0x100, msg, sizeof(msg));
    char out[sizeof(msg)] = {};
    ls->read(0x100, out, sizeof(msg));
    EXPECT_STREQ(out, msg);
    EXPECT_EQ(ls->byteAt(0x100), 's');
}

TEST_F(LsFixture, FillWorks)
{
    auto ls = make();
    ls->fill(0, 0x5A, 128);
    EXPECT_EQ(ls->byteAt(0), 0x5A);
    EXPECT_EQ(ls->byteAt(127), 0x5A);
    EXPECT_EQ(ls->byteAt(128), 0x00);
}

TEST_F(LsFixture, ZeroWriteToUnwrittenPagesIsDropped)
{
    auto ls = make();
    std::vector<std::uint8_t> zeros(3 * spe::LocalStore::kPageBytes, 0);
    ls->write(100, zeros.data(), static_cast<std::uint32_t>(zeros.size()));
    EXPECT_EQ(ls->writtenPages(), 0u);
    std::vector<std::uint8_t> out(zeros.size(), 0xFF);
    ls->read(100, out.data(), static_cast<std::uint32_t>(out.size()));
    EXPECT_EQ(out, zeros);
}

TEST_F(LsFixture, ZeroWriteOverDataClearsIt)
{
    auto ls = make();
    std::vector<std::uint8_t> ones(512, 0x11), zeros(512, 0);
    ls->write(0x2000, ones.data(), 512);
    EXPECT_EQ(ls->writtenPages(), 1u);
    ls->write(0x2000, zeros.data(), 512);
    std::vector<std::uint8_t> out(512, 0xFF);
    ls->read(0x2000, out.data(), 512);
    EXPECT_EQ(out, zeros);
}

TEST_F(LsFixture, ZeroWriteSpanningAWrittenPageIsApplied)
{
    // Page 0 holds data; a zero write over its tail and the head of
    // unwritten page 1 must clear that tail.
    const std::uint32_t page = spe::LocalStore::kPageBytes;
    auto ls = make();
    ls->fill(0, 0x77, page);
    std::vector<std::uint8_t> zeros(256, 0);
    ls->write(page - 128, zeros.data(), 256);
    EXPECT_EQ(ls->byteAt(page - 129), 0x77);
    EXPECT_EQ(ls->byteAt(page - 128), 0u);
    EXPECT_EQ(ls->byteAt(page + 127), 0u);
    EXPECT_EQ(ls->writtenPages(), 2u);
}

TEST_F(LsFixture, FillMarksItsPagesWritten)
{
    const std::uint32_t page = spe::LocalStore::kPageBytes;
    auto ls = make();
    ls->fill(page - 1, 0, 2);     // straddles pages 0 and 1, even at zero
    EXPECT_EQ(ls->writtenPages(), 2u);
    ls->fill(5 * page, 0x42, 1);
    EXPECT_EQ(ls->writtenPages(), 3u);
    // A zero write over a filled page is applied.
    std::uint8_t z = 0;
    ls->write(5 * page, &z, 1);
    EXPECT_EQ(ls->byteAt(5 * page), 0u);
}

TEST_F(LsFixture, OutOfBoundsAccessIsFatal)
{
    auto ls = make();
    char buf[16];
    EXPECT_THROW(ls->read(256 * 1024 - 8, buf, 16), sim::FatalError);
    EXPECT_THROW(ls->write(256 * 1024, buf, 1), sim::FatalError);
    EXPECT_THROW(ls->byteAt(256 * 1024), sim::FatalError);
}

TEST_F(LsFixture, ExactEndOfStoreIsLegal)
{
    auto ls = make();
    char buf[16] = {};
    ls->write(256 * 1024 - 16, buf, 16);    // must not throw
}

TEST_F(LsFixture, PortMovesSixteenBytesPerCycle)
{
    auto ls = make();
    Tick t = ls->reservePort(128);
    EXPECT_EQ(t, 8u + params.accessLatency);
}

TEST_F(LsFixture, PortReservationsSerialize)
{
    auto ls = make();
    ls->reservePort(128);
    Tick t2 = ls->reservePort(128);
    EXPECT_EQ(t2, 16u + params.accessLatency);
    EXPECT_EQ(ls->portFreeAt(), 16u);
    EXPECT_EQ(ls->bytesAccessed(), 256u);
}

TEST_F(LsFixture, SubWidthAccessStillCostsACycle)
{
    auto ls = make();
    Tick t = ls->reservePort(4);
    EXPECT_EQ(t, 1u + params.accessLatency);
}

TEST_F(LsFixture, ZeroWidthPortIsFatal)
{
    params.bytesPerCycle = 0;
    EXPECT_THROW(make(), sim::FatalError);
}

namespace
{

/** Resident set size of this process, in bytes (Linux /proc). */
std::uint64_t
residentBytes()
{
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return 0;
    unsigned long size = 0, resident = 0;
    const int got = std::fscanf(f, "%lu %lu", &size, &resident);
    std::fclose(f);
    return got == 2 ? resident * static_cast<std::uint64_t>(
                                     sysconf(_SC_PAGESIZE))
                    : 0;
}

} // namespace

TEST_F(LsFixture, UntouchedStoreReadsZeroAndStaysNonResident)
{
    // A 64 MiB store: eager zeroing would make all of it resident.
    params.sizeBytes = 64u * 1024 * 1024;
    const std::uint64_t before = residentBytes();
    if (before == 0)
        GTEST_SKIP() << "no /proc/self/statm";
    auto ls = make();
    EXPECT_EQ(ls->byteAt(0), 0u);
    EXPECT_EQ(ls->byteAt(params.sizeBytes - 1), 0u);
    EXPECT_LT(residentBytes(), before + 16u * 1024 * 1024)
        << "constructing an LS must not write its storage";

    // Written bytes stick; their neighbours still read zero.
    ls->fill(params.sizeBytes / 2, 0x3C, 64);
    EXPECT_EQ(ls->byteAt(params.sizeBytes / 2 + 63), 0x3C);
    EXPECT_EQ(ls->byteAt(params.sizeBytes / 2 + 64), 0u);
}
