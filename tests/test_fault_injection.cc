/**
 * @file
 * End-to-end tests of the recoverable MFC fault model: injected
 * drops/corruptions are repaired by the communicator's retry path (the
 * one msg_pingpong ships), --verify cross-checks every transfer against
 * its source, and the fault sequence is seed-stable.
 */

#include <gtest/gtest.h>

#include "msg/communicator.hh"
#include "stats/metrics.hh"
#include "test_util.hh"

using namespace cellbw;

namespace
{

struct FaultFixture : public ::testing::Test
{
    cell::CellConfig cfg;

    struct ExchangeResult
    {
        std::uint64_t faults = 0;
        std::uint64_t retries = 0;
        std::uint64_t injected = 0;
        Tick finish = 0;
    };

    /**
     * Stream @p messages messages from rank 2p to rank 2p+1 for each of
     * @p pairs pairs, alternating 1 KiB eager and @p bytes rendezvous
     * payloads, and check every received message.
     */
    ExchangeResult
    runExchange(unsigned pairs, unsigned messages, std::uint32_t bytes,
                std::uint64_t seed = 1)
    {
        constexpr std::uint32_t eagerBytes = 1024;
        cell::CellSystem sys(cfg, seed);
        msg::Communicator comm(sys, 2 * pairs);
        std::vector<LsAddr> src, dst;
        for (unsigned p = 0; p < pairs; ++p) {
            src.push_back(sys.spe(2 * p).lsAlloc(bytes));
            dst.push_back(sys.spe(2 * p + 1).lsAlloc(bytes));
        }
        auto size = [&](unsigned m) { return m % 2 ? bytes : eagerBytes; };
        auto pattern = [](unsigned p, unsigned m) {
            return static_cast<std::uint8_t>(p * 16 + m + 1);
        };

        unsigned received = 0;
        auto sender = [&](unsigned p) -> sim::Task {
            for (unsigned m = 0; m < messages; ++m) {
                sys.spe(2 * p).ls().fill(src[p], pattern(p, m), size(m));
                co_await comm.send(2 * p, 2 * p + 1, src[p], size(m));
            }
        };
        auto receiver = [&](unsigned p) -> sim::Task {
            auto &ls = sys.spe(2 * p + 1).ls();
            for (unsigned m = 0; m < messages; ++m) {
                std::uint32_t got = 0;
                co_await comm.recv(2 * p + 1, 2 * p, dst[p], bytes, &got);
                EXPECT_EQ(got, size(m));
                for (std::uint32_t off : {0u, got / 2, got - 1}) {
                    EXPECT_EQ(ls.byteAt(dst[p] + off), pattern(p, m))
                        << "pair " << p << " message " << m
                        << " offset " << off;
                }
                ++received;
            }
        };
        for (unsigned p = 0; p < pairs; ++p) {
            sys.launch(sender(p));
            sys.launch(receiver(p));
        }
        sys.run();

        EXPECT_EQ(received, pairs * messages);
        if (sys.verifying()) {
            EXPECT_EQ(sys.verifyStats().divergences, 0u)
                << sys.verifyStats().firstDivergence;
            EXPECT_GT(sys.verifyStats().transfersChecked, 0u);
        }

        ExchangeResult r;
        r.faults = comm.dmaFaults();
        r.retries = comm.dmaRetries();
        for (unsigned i = 0; i < sys.numSpes(); ++i) {
            r.injected += sys.spe(i).mfc().dropsInjected() +
                          sys.spe(i).mfc().corruptionsInjected() +
                          sys.spe(i).mfc().delaysInjected();
        }
        r.finish = sys.now();
        return r;
    }
};

} // namespace

TEST_F(FaultFixture, MessagesSurviveDropsAndCorruptionsUnderVerify)
{
    cfg.spe.mfc.faults.dropRate = 0.03;
    cfg.spe.mfc.faults.corruptRate = 0.03;
    cfg.spe.mfc.faults.seed = 11;
    cfg.verify = true;
    auto r = runExchange(4, 24, 64 * 1024);
    // With ~240 payload DMAs at 6% fault probability, faults certainly
    // occurred and every one was repaired by a retry.
    EXPECT_GT(r.faults, 0u);
    EXPECT_GE(r.retries, r.faults);
}

TEST_F(FaultFixture, DelaysAloneNeedNoRetries)
{
    cfg.spe.mfc.faults.delayRate = 0.2;
    cfg.verify = true;
    auto r = runExchange(2, 12, 64 * 1024);
    EXPECT_GT(r.injected, 0u);
    EXPECT_EQ(r.faults, 0u);        // a late completion is not an error
    EXPECT_EQ(r.retries, 0u);
}

TEST_F(FaultFixture, DisabledInjectionIsCleanAndRetryFree)
{
    cfg.verify = true;
    auto r = runExchange(4, 16, 64 * 1024);
    EXPECT_EQ(r.injected, 0u);
    EXPECT_EQ(r.faults, 0u);
    EXPECT_EQ(r.retries, 0u);
}

TEST_F(FaultFixture, SameSeedReproducesTheFaultSequence)
{
    cfg.spe.mfc.faults.dropRate = 0.05;
    cfg.spe.mfc.faults.corruptRate = 0.05;
    auto a = runExchange(4, 16, 64 * 1024, 3);
    auto b = runExchange(4, 16, 64 * 1024, 3);
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.faults, b.faults);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.finish, b.finish);

    // A different run seed draws a different fault sequence.
    auto c = runExchange(4, 16, 64 * 1024, 4);
    EXPECT_TRUE(a.injected != c.injected || a.finish != c.finish);
}

TEST_F(FaultFixture, MessagePassingRetriesFaultedTransfers)
{
    cfg.spe.mfc.faults.dropRate = 0.1;
    cfg.spe.mfc.faults.corruptRate = 0.1;
    cfg.spe.mfc.faults.seed = 5;
    cfg.verify = true;
    cell::CellSystem sys(cfg, 1);
    msg::Communicator comm(sys, 2);
    const std::uint32_t eager_bytes = 1024;     // eager protocol
    const std::uint32_t rndv_bytes = 32 * 1024; // rendezvous protocol
    LsAddr src = sys.spe(0).lsAlloc(rndv_bytes);
    LsAddr dst = sys.spe(1).lsAlloc(rndv_bytes);
    sys.spe(0).ls().fill(src, 0x5A, rndv_bytes);

    auto sender = [&]() -> sim::Task {
        for (int i = 0; i < 8; ++i) {
            co_await comm.send(0, 1, src, eager_bytes);
            co_await comm.send(0, 1, src, rndv_bytes);
        }
    };
    auto receiver = [&]() -> sim::Task {
        for (int i = 0; i < 8; ++i) {
            co_await comm.recv(1, 0, dst, rndv_bytes, nullptr);
            co_await comm.recv(1, 0, dst, rndv_bytes, nullptr);
            EXPECT_EQ(sys.spe(1).ls().byteAt(dst), 0x5A);
            EXPECT_EQ(sys.spe(1).ls().byteAt(dst + rndv_bytes - 1),
                      0x5A);
        }
    };
    sys.launch(sender());
    sys.launch(receiver());
    sys.run();
    // At a 20% fault rate over ~50 payload DMAs, retries certainly
    // happened — and every payload still arrived intact.
    EXPECT_GT(comm.dmaFaults(), 0u);
    EXPECT_GE(comm.dmaRetries(), comm.dmaFaults());
    EXPECT_EQ(sys.verifyStats().divergences, 0u)
        << sys.verifyStats().firstDivergence;
}

namespace
{

/** One 16 KiB GET on SPE 0; @p clobberAt > 0 overwrites the source in
 *  the backing store that many ticks after the command is queued. */
sim::Task
getOnce(cell::CellSystem &sys, EffAddr src, Tick clobberAt)
{
    constexpr std::uint32_t bytes = 16 * 1024;
    auto &mfc = sys.spe(0).mfc();
    co_await mfc.queueSpace();
    mfc.get(0, src, bytes, 0);
    if (clobberAt) {
        co_await sim::Delay{sys.eventQueue(), clobberAt};
        sys.memory().store().fill(src, 0xEE, bytes);
    }
    co_await mfc.tagWait(1u << 0);
}

} // namespace

TEST(VerifyMode, ADivergedTransferMakesRunFatal)
{
    // Overwrite the GET's source while its lines are in flight: the
    // lines that already landed carry the old bytes, so the LS and the
    // backing store disagree when the command completes.
    cell::CellConfig cfg;
    cfg.verify = true;
    cell::CellSystem sys(cfg, 1);
    EffAddr src = sys.malloc(16 * 1024);
    sys.launch(getOnce(sys, src, 1500));
    try {
        sys.run();
        FAIL() << "a diverged transfer passed --verify";
    } catch (const sim::FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("1 transfer(s) diverged"), std::string::npos)
            << what;
        EXPECT_NE(what.find("spe0 tag 0 get"), std::string::npos) << what;
    }
    EXPECT_EQ(sys.verifyStats().divergences, 1u);
}

TEST(VerifyMode, CountsReachTheMetricsOnlyUnderVerify)
{
    for (bool verify : {false, true}) {
        cell::CellConfig cfg;
        cfg.verify = verify;
        cell::CellSystem sys(cfg, 1);
        EffAddr src = sys.malloc(16 * 1024);
        sys.launch(getOnce(sys, src, 0));
        sys.run();
        stats::MetricsRegistry reg;
        sys.snapshotMetrics(reg);
        const auto *checked = reg.findCounter("verify.transfers_checked");
        if (!verify) {
            EXPECT_EQ(checked, nullptr);
            EXPECT_EQ(reg.findCounter("verify.divergences"), nullptr);
            continue;
        }
        ASSERT_NE(checked, nullptr);
        EXPECT_EQ(checked->value(), 1u);
        EXPECT_EQ(reg.findCounter("verify.bytes_checked")->value(),
                  16u * 1024u);
        EXPECT_EQ(reg.findCounter("verify.divergences")->value(), 0u);
        EXPECT_EQ(reg.findCounter("verify.faulted_skipped")->value(), 0u);
    }
}
