/** @file Tests for the MPI-style SPE message-passing layer. */

#include <gtest/gtest.h>

#include "msg/communicator.hh"
#include "test_util.hh"

using namespace cellbw;

namespace
{

struct MsgFixture : public ::testing::Test
{
    cell::CellConfig cfg;

    std::unique_ptr<cell::CellSystem>
    makeSys(std::uint64_t seed = 1)
    {
        return std::make_unique<cell::CellSystem>(cfg, seed);
    }
};

/** Fill rank @p r's LS at @p lsa with a recognizable pattern. */
void
pattern(cell::CellSystem &sys, unsigned r, LsAddr lsa,
        std::uint32_t bytes, std::uint8_t key)
{
    sys.spe(r).ls().fill(lsa, key, bytes);
}

} // namespace

TEST_F(MsgFixture, EagerSendRecvDeliversData)
{
    auto sys = makeSys();
    msg::Communicator comm(*sys, 2);
    LsAddr src = sys->spe(0).lsAlloc(1024);
    LsAddr dst = sys->spe(1).lsAlloc(1024);
    pattern(*sys, 0, src, 1024, 0x42);

    auto sender = [&]() -> sim::Task {
        co_await comm.send(0, 1, src, 1024);
    };
    auto receiver = [&]() -> sim::Task {
        std::uint32_t got = 0;
        co_await comm.recv(1, 0, dst, 1024, &got);
        EXPECT_EQ(got, 1024u);
    };
    sys->launch(sender());
    sys->launch(receiver());
    sys->run();
    EXPECT_EQ(sys->spe(1).ls().byteAt(dst), 0x42);
    EXPECT_EQ(sys->spe(1).ls().byteAt(dst + 1023), 0x42);
    EXPECT_EQ(comm.eagerMessages(), 1u);
    EXPECT_EQ(comm.rendezvousMessages(), 0u);
}

TEST_F(MsgFixture, RendezvousSendRecvDeliversData)
{
    auto sys = makeSys();
    msg::Communicator comm(*sys, 2);
    const std::uint32_t bytes = 16 * 1024;      // > eager limit
    LsAddr src = sys->spe(0).lsAlloc(bytes);
    LsAddr dst = sys->spe(1).lsAlloc(bytes);
    pattern(*sys, 0, src, bytes, 0x77);

    auto sender = [&]() -> sim::Task {
        co_await comm.send(0, 1, src, bytes);
    };
    auto receiver = [&]() -> sim::Task {
        co_await comm.recv(1, 0, dst, bytes, nullptr);
    };
    sys->launch(sender());
    sys->launch(receiver());
    sys->run();
    EXPECT_EQ(sys->spe(1).ls().byteAt(dst + bytes - 1), 0x77);
    EXPECT_EQ(comm.rendezvousMessages(), 1u);
    EXPECT_EQ(comm.bytesSent(), bytes);
}

TEST_F(MsgFixture, MessagesFromOneSenderArriveInOrder)
{
    auto sys = makeSys();
    msg::Communicator comm(*sys, 2);
    LsAddr src = sys->spe(0).lsAlloc(4096);
    LsAddr dst = sys->spe(1).lsAlloc(256);
    std::vector<std::uint8_t> seen;

    auto sender = [&]() -> sim::Task {
        for (std::uint8_t m = 1; m <= 6; ++m) {
            sys->spe(0).ls().fill(src, m, 256);
            co_await comm.send(0, 1, src, 256);
        }
    };
    auto receiver = [&]() -> sim::Task {
        for (int m = 0; m < 6; ++m) {
            co_await comm.recv(1, 0, dst, 256, nullptr);
            seen.push_back(sys->spe(1).ls().byteAt(dst));
        }
    };
    sys->launch(sender());
    sys->launch(receiver());
    sys->run();
    EXPECT_EQ(seen, (std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6}));
}

TEST_F(MsgFixture, CreditsThrottleTheSender)
{
    auto sys = makeSys();
    msg::CommunicatorParams params;
    params.slotsPerPair = 1;
    msg::Communicator comm(*sys, 2, params);
    LsAddr src = sys->spe(0).lsAlloc(256);
    LsAddr dst = sys->spe(1).lsAlloc(256);

    int sent = 0;
    auto sender = [&]() -> sim::Task {
        for (int m = 0; m < 4; ++m) {
            co_await comm.send(0, 1, src, 256);
            ++sent;
        }
    };
    sim::Task s = sender();
    sys->launch(std::move(s));
    // Without a receiver the sender must stall after exhausting the
    // single credit (message 2 waits for a credit).
    sys->eventQueue().run();
    EXPECT_LT(sent, 4);

    auto receiver = [&]() -> sim::Task {
        for (int m = 0; m < 4; ++m)
            co_await comm.recv(1, 0, dst, 256, nullptr);
    };
    sys->launch(receiver());
    sys->run();
    EXPECT_EQ(sent, 4);
}

TEST_F(MsgFixture, BidirectionalExchangeDoesNotDeadlock)
{
    auto sys = makeSys();
    msg::Communicator comm(*sys, 2);
    LsAddr buf_a = sys->spe(0).lsAlloc(512);
    LsAddr buf_b = sys->spe(1).lsAlloc(512);
    LsAddr rx_a = sys->spe(0).lsAlloc(512);
    LsAddr rx_b = sys->spe(1).lsAlloc(512);
    pattern(*sys, 0, buf_a, 512, 0xA0);
    pattern(*sys, 1, buf_b, 512, 0xB0);

    auto node = [&](unsigned self, unsigned peer, LsAddr tx,
                    LsAddr rx) -> sim::Task {
        co_await comm.send(self, peer, tx, 512);
        co_await comm.recv(self, peer, rx, 512, nullptr);
    };
    sys->launch(node(0, 1, buf_a, rx_a));
    sys->launch(node(1, 0, buf_b, rx_b));
    sys->run();
    EXPECT_EQ(sys->spe(0).ls().byteAt(rx_a), 0xB0);
    EXPECT_EQ(sys->spe(1).ls().byteAt(rx_b), 0xA0);
}

TEST_F(MsgFixture, ApiMisuseIsFatal)
{
    auto sys = makeSys();
    EXPECT_THROW(msg::Communicator(*sys, 1), sim::FatalError);
    EXPECT_THROW(msg::Communicator(*sys, 9), sim::FatalError);

    msg::CommunicatorParams bad;
    bad.eagerLimit = 4096;
    bad.slotBytes = 2048;
    EXPECT_THROW(msg::Communicator(*sys, 2, bad), sim::FatalError);

    msg::Communicator comm(*sys, 2);
    auto bad_send = [&]() -> sim::Task {
        co_await comm.send(0, 1, 0, 100);   // invalid DMA size
    };
    sys->launch(bad_send());
    EXPECT_THROW(sys->run(), sim::FatalError);
}

TEST_F(MsgFixture, RendezvousBeatsEagerForLargeMessages)
{
    // With the limit raised, a 16 KiB eager message pays an extra LS
    // copy; rendezvous moves it once.
    auto run = [&](std::uint32_t eager_limit) {
        auto sys = makeSys();
        msg::CommunicatorParams params;
        params.eagerLimit = eager_limit;
        params.slotBytes = 16 * 1024;
        msg::Communicator comm(*sys, 2, params);
        LsAddr src = sys->spe(0).lsAlloc(16 * 1024);
        LsAddr dst = sys->spe(1).lsAlloc(16 * 1024);
        auto sender = [&]() -> sim::Task {
            for (int i = 0; i < 16; ++i)
                co_await comm.send(0, 1, src, 16 * 1024);
        };
        auto receiver = [&]() -> sim::Task {
            for (int i = 0; i < 16; ++i)
                co_await comm.recv(1, 0, dst, 16 * 1024, nullptr);
        };
        Tick t0 = sys->now();
        sys->launch(sender());
        sys->launch(receiver());
        sys->run();
        return sys->now() - t0;
    };
    Tick eager = run(16 * 1024);
    Tick rndv = run(2048);
    EXPECT_LT(rndv, eager);
}
