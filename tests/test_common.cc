/**
 * @file
 * Unit tests for the common utilities: errors, logging, RNG, units,
 * table and CSV formatting.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/csv.h"
#include "common/error.h"
#include "common/flat_hash.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/units.h"

namespace scar
{
namespace
{

TEST(Error, FatalCarriesMessage)
{
    try {
        fatal("bad config: ", 42);
        FAIL() << "fatal() must throw";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("bad config: 42"),
                  std::string::npos);
    }
}

TEST(Error, PanicIsLogicError)
{
    EXPECT_THROW(panic("broken"), PanicError);
    EXPECT_THROW(panic("broken"), std::logic_error);
}

TEST(Error, RequireMacroPassesAndFails)
{
    EXPECT_NO_THROW(SCAR_REQUIRE(1 + 1 == 2, "math"));
    EXPECT_THROW(SCAR_REQUIRE(false, "nope"), FatalError);
}

TEST(Error, AssertMacroPassesAndFails)
{
    EXPECT_NO_THROW(SCAR_ASSERT(true, "fine"));
    EXPECT_THROW(SCAR_ASSERT(false, "bug"), PanicError);
}

TEST(Logging, LevelFiltering)
{
    const LogLevel before = logLevel();
    setLogLevel(LogLevel::Silent);
    EXPECT_EQ(logLevel(), LogLevel::Silent);
    inform("this must not crash while silent");
    setLogLevel(before);
}

TEST(Rng, DeterministicFromSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformInt(0, 1000), b.uniformInt(0, 1000));
}

TEST(Rng, UniformIntRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const int v = rng.uniformInt(-3, 9);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 9);
    }
}

TEST(Rng, IndexRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.index(13), 13u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(99);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniform();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Units, CycleSecondsRoundTrip)
{
    EXPECT_DOUBLE_EQ(cyclesToSeconds(kClockHz), 1.0);
    EXPECT_DOUBLE_EQ(secondsToCycles(cyclesToSeconds(12345.0)), 12345.0);
}

TEST(Units, NsToCyclesAt500Mhz)
{
    // 500 MHz -> 2 ns per cycle.
    EXPECT_DOUBLE_EQ(nsToCycles(2.0), 1.0);
    EXPECT_DOUBLE_EQ(nsToCycles(35.0), 17.5);
}

TEST(Units, BandwidthConversion)
{
    // 64 GB/s at 500 MHz = 128 bytes/cycle.
    EXPECT_DOUBLE_EQ(gbpsToBytesPerCycle(64.0), 128.0);
}

TEST(Units, EnergyConversions)
{
    EXPECT_DOUBLE_EQ(njToJoules(1.0e9), 1.0);
    EXPECT_DOUBLE_EQ(pjToNj(1000.0), 1.0);
}

TEST(Table, RendersAlignedRows)
{
    TextTable table({"A", "Metric"});
    table.addRow({"x", "1.5"});
    table.addRow({"long-name", "2"});
    const std::string out = table.render();
    EXPECT_NE(out.find("long-name"), std::string::npos);
    EXPECT_NE(out.find("| A "), std::string::npos);
    EXPECT_EQ(table.rowCount(), 2u);
}

TEST(Table, RejectsWrongArity)
{
    TextTable table({"A", "B"});
    EXPECT_THROW(table.addRow({"only-one"}), FatalError);
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
    EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(Csv, WritesHeaderAndEscapes)
{
    const std::string path = "/tmp/scar_test_csv.csv";
    {
        CsvWriter csv(path, {"name", "value"});
        csv.addRow({"plain", "1"});
        csv.addRow({"with,comma", "quote\"inside"});
        EXPECT_TRUE(csv.good());
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "name,value");
    std::getline(in, line);
    EXPECT_EQ(line, "plain,1");
    std::getline(in, line);
    EXPECT_EQ(line, "\"with,comma\",\"quote\"\"inside\"");
    std::remove(path.c_str());
}

TEST(Csv, RejectsWrongArity)
{
    CsvWriter csv("/tmp/scar_test_csv2.csv", {"a"});
    EXPECT_THROW(csv.addRow({"x", "y"}), FatalError);
    std::remove("/tmp/scar_test_csv2.csv");
}

// ---- FlatHashMap (the SoloCache / PathCache backing store) ---------

TEST(FlatHashMap, FindInsertAndGrowth)
{
    FlatHashMap<std::vector<int>, int, IntSequenceHash> map;
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.find({1, 2, 3}), nullptr);

    // Enough keys to force several rehashes past the 7/8 load factor.
    for (int i = 0; i < 1000; ++i)
        map.insert({i, i * 31, -i}, i);
    EXPECT_EQ(map.size(), 1000u);
    for (int i = 0; i < 1000; ++i) {
        const int* value = map.find({i, i * 31, -i});
        ASSERT_NE(value, nullptr) << "lost key " << i;
        EXPECT_EQ(*value, i);
    }
    EXPECT_EQ(map.find({1000, 31000, -1000}), nullptr);
    // A probe by precomputed hash and match test finds the same entry.
    const std::vector<int> probe = {5, 155, -5};
    const int* byHash =
        map.find(IntSequenceHash{}(probe),
                 [&](const std::vector<int>& key) { return key == probe; });
    ASSERT_NE(byHash, nullptr);
    EXPECT_EQ(*byHash, 5);
    // Prefix/suffix confusion must not alias.
    EXPECT_EQ(map.find({1, 31}), nullptr);
    EXPECT_EQ(map.find({}), nullptr);
}

TEST(FlatHashMap, DuplicateInsertKeepsFirstValue)
{
    FlatHashMap<std::vector<int>, int, IntSequenceHash> map;
    EXPECT_EQ(map.insert({7, 7}, 1), 1);
    // The memoization caches rely on first-write-wins: racing
    // duplicate computations store identical values, so keeping the
    // first is both cheap and correct.
    EXPECT_EQ(map.insert({7, 7}, 2), 1);
    EXPECT_EQ(map.size(), 1u);
    EXPECT_EQ(*map.find({7, 7}), 1);
}

} // namespace
} // namespace scar
