/**
 * @file
 * The paper's headline recommendation, demonstrated end-to-end:
 *
 *   "implementing two data streams using 4 SPEs each can be more
 *    efficient than having a single data stream using the 8 SPEs"
 *
 * We build a streaming pipeline that pulls data from main memory,
 * passes it SPE-to-SPE down a chain (each hop forwards its buffer with
 * a GET from the previous stage's LS), and writes results back to
 * memory — once as a single 8-SPE chain, once as two independent 4-SPE
 * chains, with identical total work.
 */

#include <cstdio>

#include "cell/cell_system.hh"
#include "sim/task.hh"
#include "util/strings.hh"

using namespace cellbw;

namespace
{

constexpr std::uint32_t chunkBytes = 16 * 1024;
constexpr std::uint32_t slotCount = 4;

/**
 * First stage: GETs chunks from main memory into its LS, then signals
 * the chunk number through its outbound mailbox.
 */
sim::Task
sourceStage(cell::CellSystem &sys, unsigned spe, EffAddr src,
            std::uint64_t chunks)
{
    auto &s = sys.spe(spe);
    LsAddr buf = s.lsAlloc(slotCount * chunkBytes);
    for (std::uint64_t c = 0; c < chunks; ++c) {
        LsAddr slot = buf + (c % slotCount) * chunkBytes;
        co_await s.mfc().queueSpace();
        s.mfc().get(slot, src + c * chunkBytes, chunkBytes,
                    static_cast<unsigned>(c % slotCount));
        co_await s.mfc().tagWait(1u << (c % slotCount));
        co_await s.outboundMailbox().write(static_cast<std::uint32_t>(c));
    }
}

/**
 * Middle stage: waits for its predecessor's mailbox, GETs the chunk
 * from the predecessor's LS, forwards the token.
 */
sim::Task
relayStage(cell::CellSystem &sys, unsigned spe, unsigned prev,
           std::uint64_t chunks)
{
    auto &s = sys.spe(spe);
    LsAddr buf = s.lsAlloc(slotCount * chunkBytes);
    // The predecessor allocated its buffer at the same LS offset.
    LsAddr peer_buf = buf;
    for (std::uint64_t c = 0; c < chunks; ++c) {
        std::uint32_t token = co_await sys.spe(prev).outboundMailbox().read();
        LsAddr slot = buf + (token % slotCount) * chunkBytes;
        co_await s.mfc().queueSpace();
        s.mfc().get(slot,
                    sys.lsEa(prev, peer_buf +
                             (token % slotCount) * chunkBytes),
                    chunkBytes, token % slotCount);
        co_await s.mfc().tagWait(1u << (token % slotCount));
        co_await s.outboundMailbox().write(token);
    }
}

/** Final stage: PUTs chunks back to main memory. */
sim::Task
sinkStage(cell::CellSystem &sys, unsigned spe, unsigned prev, EffAddr dst,
          std::uint64_t chunks)
{
    auto &s = sys.spe(spe);
    LsAddr buf = s.lsAlloc(slotCount * chunkBytes);
    for (std::uint64_t c = 0; c < chunks; ++c) {
        std::uint32_t token = co_await sys.spe(prev).outboundMailbox().read();
        LsAddr slot = buf + (token % slotCount) * chunkBytes;
        co_await s.mfc().queueSpace();
        s.mfc().get(slot,
                    sys.lsEa(prev, slot), chunkBytes, token % slotCount);
        co_await s.mfc().tagWait(1u << (token % slotCount));
        co_await s.mfc().queueSpace();
        s.mfc().put(slot, dst + token * static_cast<EffAddr>(chunkBytes),
                    chunkBytes, 8);
    }
    co_await s.mfc().tagWait(1u << 8);
}

/**
 * Run one pipeline over the SPEs [first, first+width) moving
 * @p totalBytes; returns when its sink finished.
 */
void
launchChain(cell::CellSystem &sys, unsigned first, unsigned width,
            EffAddr src, EffAddr dst, std::uint64_t totalBytes)
{
    std::uint64_t chunks = totalBytes / chunkBytes;
    sys.launch(sourceStage(sys, first, src, chunks));
    for (unsigned i = 1; i + 1 < width; ++i)
        sys.launch(relayStage(sys, first + i, first + i - 1, chunks));
    sys.launch(sinkStage(sys, first + width - 1, first + width - 2, dst,
                         chunks));
}

double
runConfiguration(unsigned streams, unsigned width,
                 std::uint64_t bytesPerStream, std::uint64_t seed)
{
    cell::CellConfig cfg;
    cell::CellSystem sys(cfg, seed);
    Tick t0 = sys.now();
    for (unsigned st = 0; st < streams; ++st) {
        EffAddr src = sys.malloc(bytesPerStream);
        EffAddr dst = sys.malloc(bytesPerStream);
        sys.memory().store().fill(src, static_cast<std::uint8_t>(st + 1),
                                  bytesPerStream);
        launchChain(sys, st * width, width, src, dst, bytesPerStream);
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
    std::printf("(total payload %s, %u KiB chunks, double-buffered "
                "LS slots)\n\n",
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
