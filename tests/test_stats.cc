/** @file Unit tests for statistics, tables and charts. */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "sim/logging.hh"
#include "stats/ascii_chart.hh"
#include "stats/distribution.hh"
#include "stats/table.hh"

using namespace cellbw;

TEST(Distribution, MedianOddAndEven)
{
    stats::Distribution d;
    for (double v : {5.0, 1.0, 3.0})
        d.add(v);
    EXPECT_DOUBLE_EQ(d.median(), 3.0);
    d.add(7.0);
    EXPECT_DOUBLE_EQ(d.median(), 4.0);  // (3+5)/2
}

TEST(Distribution, QuantileInterpolates)
{
    stats::Distribution d;
    for (double v : {0.0, 10.0, 20.0, 30.0, 40.0})
        d.add(v);
    EXPECT_DOUBLE_EQ(d.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(d.quantile(1.0), 40.0);
    EXPECT_DOUBLE_EQ(d.quantile(0.25), 10.0);
    EXPECT_DOUBLE_EQ(d.quantile(0.125), 5.0);
}

TEST(Distribution, QuantileOutOfRangeIsFatal)
{
    stats::Distribution d;
    d.add(1.0);
    EXPECT_THROW(d.quantile(1.5), sim::FatalError);
    EXPECT_THROW(d.quantile(-0.1), sim::FatalError);
}

TEST(Distribution, MinMaxMeanStddev)
{
    stats::Distribution d;
    for (double v : {4.0, 2.0, 8.0, 6.0})
        d.add(v);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 8.0);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_NEAR(d.stddev(), 2.5819888974716116, 1e-12);
}

TEST(Distribution, EmptyIsAllZero)
{
    stats::Distribution d;
    EXPECT_TRUE(d.empty());
    EXPECT_DOUBLE_EQ(d.median(), 0.0);
    EXPECT_DOUBLE_EQ(d.min(), 0.0);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.p95(), 0.0);
    EXPECT_DOUBLE_EQ(d.cv(), 0.0);
}

TEST(Distribution, P95InterpolatesOrderStatistics)
{
    stats::Distribution d;
    // 21 evenly spaced samples 0..100: quantiles are exact positions.
    for (int i = 0; i <= 20; ++i)
        d.add(i * 5.0);
    EXPECT_DOUBLE_EQ(d.p95(), 95.0);
    EXPECT_DOUBLE_EQ(d.median(), 50.0);
}

TEST(Distribution, CvIsRelativeStddevPercent)
{
    stats::Distribution d;
    for (double v : {4.0, 2.0, 8.0, 6.0})    // mean 5, stddev ~2.582
        d.add(v);
    EXPECT_NEAR(d.cv(), 100.0 * 2.5819888974716116 / 5.0, 1e-9);

    // An all-zero distribution has mean 0; CV must degrade to 0, not
    // NaN/inf.
    stats::Distribution z;
    z.add(0.0);
    z.add(0.0);
    EXPECT_DOUBLE_EQ(z.cv(), 0.0);
}

TEST(Distribution, SingleSampleStatisticsAreDegenerate)
{
    // n=1: median and p95 are the sample, stddev/CV are 0 — the native
    // table with --runs 1 must stay finite.
    stats::Distribution d;
    d.add(7.5);
    EXPECT_DOUBLE_EQ(d.median(), 7.5);
    EXPECT_DOUBLE_EQ(d.p95(), 7.5);
    EXPECT_DOUBLE_EQ(d.stddev(), 0.0);
    EXPECT_DOUBLE_EQ(d.cv(), 0.0);
}

TEST(Distribution, AddAfterQueryResorts)
{
    stats::Distribution d;
    d.add(10.0);
    EXPECT_DOUBLE_EQ(d.max(), 10.0);
    d.add(20.0);
    EXPECT_DOUBLE_EQ(d.max(), 20.0);
    d.add(5.0);
    EXPECT_DOUBLE_EQ(d.min(), 5.0);
}

TEST(Distribution, ConcurrentConstReadsAreSafe)
{
    // The const accessors must be genuinely read-only: the lazy
    // sort-on-demand cache used to mutate mutable state under const,
    // racing when the parallel seed-sweep runner read one Distribution
    // from several threads.  Run many concurrent readers; under TSan
    // this fails loudly if any accessor writes shared state.
    stats::Distribution d;
    for (int i = 99; i >= 0; --i)
        d.add(static_cast<double>(i));

    std::atomic<int> errors{0};
    std::vector<std::thread> readers;
    readers.reserve(8);
    for (int t = 0; t < 8; ++t) {
        readers.emplace_back([&d, &errors] {
            for (int i = 0; i < 1000; ++i) {
                if (d.min() != 0.0 || d.max() != 99.0 ||
                    d.median() != 49.5 ||
                    d.quantile(0.25) != 24.75) {
                    ++errors;
                }
            }
        });
    }
    for (auto &r : readers)
        r.join();
    EXPECT_EQ(errors.load(), 0);
}

TEST(Table, RendersAlignedColumns)
{
    stats::Table t({"name", "value"});
    t.addRow({"x", "1.00"});
    t.addRow({"longer-name", "2.50"});
    std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer-name  2.50"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
    EXPECT_EQ(t.columnCount(), 2u);
}

TEST(Table, RowArityMismatchIsFatal)
{
    stats::Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), sim::FatalError);
}

TEST(Table, EmptyHeaderListIsFatal)
{
    EXPECT_THROW(stats::Table({}), sim::FatalError);
}

TEST(Table, CsvEscapesSpecialCharacters)
{
    stats::Table t({"k", "v"});
    t.addRow({"plain", "with,comma"});
    t.addRow({"quote\"inside", "line"});
    std::string csv = t.renderCsv();
    EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
    EXPECT_NE(csv.find("\"quote\"\"inside\""), std::string::npos);
    EXPECT_EQ(csv.find("plain,"), csv.find("plain"));
}

TEST(Table, NumFormatsDigits)
{
    EXPECT_EQ(stats::Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(stats::Table::num(3.0, 0), "3");
}

TEST(BarChart, RendersBarsScaledToMax)
{
    stats::BarChart c("title", 10);
    c.add("a", 5.0);
    c.add("b", 10.0);
    std::string out = c.render();
    EXPECT_NE(out.find("title"), std::string::npos);
    EXPECT_NE(out.find("##########"), std::string::npos);  // full bar
    EXPECT_NE(out.find("#####"), std::string::npos);
}

TEST(BarChart, ExplicitScaleMax)
{
    stats::BarChart c("t", 10);
    c.setScaleMax(20.0);
    c.add("half-of-scale", 10.0);
    std::string out = c.render();
    // 10/20 of 10 chars = 5 hashes, not 10.
    EXPECT_EQ(out.find("##########"), std::string::npos);
    EXPECT_NE(out.find("#####"), std::string::npos);
}

TEST(BarChart, EmptyChartSaysNoData)
{
    stats::BarChart c("t");
    EXPECT_NE(c.render().find("no data"), std::string::npos);
}

TEST(BarChart, NegativeValueGetsLeftEdgeMarker)
{
    // Regression: a negative value used to render as an empty bar,
    // indistinguishable from zero.
    stats::BarChart c("t", 10);
    c.add("bad", -3.0);
    c.add("ref", 10.0);
    std::string out = c.render();
    EXPECT_NE(out.find("|<"), std::string::npos);
    // The marker replaces the bar, it does not widen the row.
    EXPECT_EQ(out.find("<#"), std::string::npos);
}

TEST(BarChart, OverflowGetsRightEdgeMarker)
{
    // Regression: a value past the fixed scale used to saturate into a
    // full-width bar, silently indistinguishable from exactly-at-peak.
    stats::BarChart c("t", 10);
    c.setScaleMax(10.0);
    c.add("peak", 10.0);
    c.add("over", 25.0);
    std::string out = c.render();
    EXPECT_NE(out.find("##########"), std::string::npos);  // exact peak
    EXPECT_NE(out.find("#########>"), std::string::npos);  // clamped
}

TEST(SeriesChart, RendersLegendAndAxis)
{
    stats::SeriesChart c("chart", {"x1", "x2", "x3"}, 4);
    c.addSeries("s1", {1.0, 2.0, 3.0});
    c.addSeries("s2", {3.0, 2.0, 1.0});
    std::string out = c.render();
    EXPECT_NE(out.find("legend:"), std::string::npos);
    EXPECT_NE(out.find("*=s1"), std::string::npos);
    EXPECT_NE(out.find("o=s2"), std::string::npos);
    EXPECT_NE(out.find("x1"), std::string::npos);
}

TEST(SeriesChart, ArityMismatchIsFatal)
{
    stats::SeriesChart c("chart", {"a", "b"});
    EXPECT_THROW(c.addSeries("bad", {1.0}), sim::FatalError);
}

TEST(SeriesChart, EmptyAxisIsFatal)
{
    EXPECT_THROW(stats::SeriesChart("c", {}), sim::FatalError);
}
