/**
 * @file
 * The paper's headline recommendation, demonstrated end-to-end:
 *
 *   "implementing two data streams using 4 SPEs each can be more
 *    efficient than having a single data stream using the 8 SPEs"
 *
 * We build a streaming pipeline that pulls data from main memory,
 * passes it SPE-to-SPE down a chain (msg::Communicator messages: each
 * hop GETs its buffer from the previous stage's LS), and writes results
 * back to memory — once as a single 8-SPE chain, once as two
 * independent 4-SPE chains, with identical total work.
 */

#include <cstdio>

#include "cell/cell_system.hh"
#include "msg/communicator.hh"
#include "util/strings.hh"

using namespace cellbw;

namespace
{

constexpr std::uint32_t chunkBytes = 16 * 1024;
constexpr std::uint32_t slotCount = 4;

/**
 * First stage: GETs chunks from main memory into its LS and hands each
 * one to the next stage.  A 16 KiB message goes by rendezvous: the
 * next stage GETs it straight out of this LS, and send() returns once
 * it has, so the slot is free again.
 */
sim::Task
sourceStage(cell::CellSystem &sys, msg::Communicator &comm, unsigned spe,
            EffAddr src, std::uint64_t chunks)
{
    auto &s = sys.spe(spe);
    LsAddr buf = s.lsAlloc(slotCount * chunkBytes);
    for (std::uint64_t c = 0; c < chunks; ++c) {
        LsAddr slot = buf + (c % slotCount) * chunkBytes;
        co_await s.mfc().queueSpace();
        s.mfc().get(slot, src + c * chunkBytes, chunkBytes, 0);
        co_await s.mfc().tagWait(1u << 0);
        co_await comm.send(spe, spe + 1, slot, chunkBytes);
    }
}

/** Middle stage: pulls each chunk from its predecessor, passes it on. */
sim::Task
relayStage(cell::CellSystem &sys, msg::Communicator &comm, unsigned spe,
           std::uint64_t chunks)
{
    LsAddr buf = sys.spe(spe).lsAlloc(slotCount * chunkBytes);
    for (std::uint64_t c = 0; c < chunks; ++c) {
        LsAddr slot = buf + (c % slotCount) * chunkBytes;
        co_await comm.recv(spe, spe - 1, slot, chunkBytes, nullptr);
        co_await comm.send(spe, spe + 1, slot, chunkBytes);
    }
}

/**
 * Final stage: pulls each chunk and PUTs it back to main memory, one
 * tag group per slot so a slot is reused only once its PUT is done.
 */
sim::Task
sinkStage(cell::CellSystem &sys, msg::Communicator &comm, unsigned spe,
          EffAddr dst, std::uint64_t chunks)
{
    auto &s = sys.spe(spe);
    LsAddr buf = s.lsAlloc(slotCount * chunkBytes);
    for (std::uint64_t c = 0; c < chunks; ++c) {
        const auto tag = static_cast<unsigned>(c % slotCount);
        LsAddr slot = buf + tag * chunkBytes;
        co_await s.mfc().tagWait(1u << tag);
        co_await comm.recv(spe, spe - 1, slot, chunkBytes, nullptr);
        co_await s.mfc().queueSpace();
        s.mfc().put(slot, dst + c * chunkBytes, chunkBytes, tag);
    }
    co_await s.mfc().tagWait((1u << slotCount) - 1);
}

/**
 * Run one pipeline over the SPEs [first, first+width) moving
 * @p totalBytes; returns when its sink finished.
 */
void
launchChain(cell::CellSystem &sys, msg::Communicator &comm, unsigned first,
            unsigned width, EffAddr src, EffAddr dst,
            std::uint64_t totalBytes)
{
    std::uint64_t chunks = totalBytes / chunkBytes;
    sys.launch(sourceStage(sys, comm, first, src, chunks));
    for (unsigned i = 1; i + 1 < width; ++i)
        sys.launch(relayStage(sys, comm, first + i, chunks));
    sys.launch(sinkStage(sys, comm, first + width - 1, dst, chunks));
}

double
runConfiguration(unsigned streams, unsigned width,
                 std::uint64_t bytesPerStream, std::uint64_t seed)
{
    cell::CellConfig cfg;
    cell::CellSystem sys(cfg, seed);
    msg::Communicator comm(sys, streams * width);
    Tick t0 = sys.now();
    for (unsigned st = 0; st < streams; ++st) {
        EffAddr src = sys.malloc(bytesPerStream);
        EffAddr dst = sys.malloc(bytesPerStream);
        launchChain(sys, comm, st * width, width, src, dst,
                    bytesPerStream);
    }
    sys.run();
    double secs = cfg.clock.seconds(sys.now() - t0);
    return streams * bytesPerStream / secs / 1e9;
}

} // namespace

int
main()
{
    const std::uint64_t total = 16 * util::MiB;  // split across streams

    std::printf("Streaming pipelines on the Cell: one 8-SPE chain vs "
                "two 4-SPE chains\n");
    std::printf("(total payload %s, %u KiB chunks handed on as "
                "rendezvous messages)\n\n",
                util::bytesToString(total).c_str(), chunkBytes / 1024);

    double one = 0.0, two = 0.0;
    const int runs = 5;
    for (int r = 0; r < runs; ++r) {
        one += runConfiguration(1, 8, total, 100 + r);
        two += runConfiguration(2, 4, total / 2, 200 + r);
    }
    one /= runs;
    two /= runs;

    std::printf("  1 stream  x 8 SPEs : %6.2f GB/s of payload\n", one);
    std::printf("  2 streams x 4 SPEs : %6.2f GB/s of payload\n", two);
    std::printf("  ratio             : %.2fx\n", two / one);
    return 0;
}
