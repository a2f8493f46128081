/**
 * @file
 * MPI-style message passing between SPEs.
 *
 * The paper's abstract motivates the CBE for "applications using MPI
 * and streaming programming models"; contemporaries (Ohio State's Cell
 * MPI, Krishna et al.) built exactly this layer.  Communicator provides
 * ranks (one per SPE) and point-to-point send/recv with the two classic
 * protocols, moving real bytes over the simulated MFC/EIB path, so the
 * paper's bandwidth rules decide the performance:
 *
 *  - **eager** (small messages): the sender PUTs the payload directly
 *    into a credit-managed slot in the receiver's LS and posts a
 *    descriptor; the receiver copies it out and returns the credit.
 *    One DMA + one LS copy; latency-optimal.
 *  - **rendezvous** (large messages): the sender publishes a
 *    ready-to-send descriptor; the receiver GETs the payload straight
 *    from the sender's LS (zero-copy) and acknowledges.  One DMA at
 *    full pair bandwidth.
 *
 * Control descriptors travel through runtime-managed queues with a
 * configurable notification latency, modeling mailbox/MMIO flag writes.
 */

#ifndef CELLBW_MSG_COMMUNICATOR_HH
#define CELLBW_MSG_COMMUNICATOR_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "cell/cell_system.hh"
#include "sim/task.hh"

namespace cellbw::msg
{

struct CommunicatorParams
{
    /** Messages up to this size use the eager protocol. */
    std::uint32_t eagerLimit = 2048;

    /** Eager slot size; also the largest eager message. */
    std::uint32_t slotBytes = 2048;

    /** Eager slots (credits) per ordered sender->receiver pair. */
    unsigned slotsPerPair = 2;

    /** Modeled latency of a control notification (mailbox write). */
    Tick notifyLatency = 200;

    /** Max re-issues of a transiently faulted DMA before fatal. */
    unsigned maxDmaRetries = 8;

    /** Base retry backoff, ticks; doubles with each failed attempt. */
    Tick retryBackoff = 1000;
};

class Communicator
{
  public:
    /**
     * Build a communicator over logical SPEs [0, ranks).  Reserves LS
     * space on each participant for the eager slots.
     */
    Communicator(cell::CellSystem &sys, unsigned ranks,
                 const CommunicatorParams &params = {});

    unsigned ranks() const { return ranks_; }
    std::uint32_t eagerLimit() const { return params_.eagerLimit; }

    /**
     * Send @p bytes from @p lsa in rank @p self's LS to rank @p dst.
     * Completes when the payload has left the sender's buffer (eager)
     * or has been pulled by the receiver (rendezvous).
     */
    sim::Task send(unsigned self, unsigned dst, LsAddr lsa,
                   std::uint32_t bytes);

    /**
     * Receive the next message from @p src into @p lsa (capacity
     * @p maxBytes) of rank @p self's LS.  Messages from one sender
     * arrive in order; @p outBytes receives the payload size.
     */
    sim::Task recv(unsigned self, unsigned src, LsAddr lsa,
                   std::uint32_t maxBytes, std::uint32_t *outBytes);

    /** @name Statistics. */
    /** @{ */
    std::uint64_t eagerMessages() const { return eagerCount_; }
    std::uint64_t rendezvousMessages() const { return rndvCount_; }
    std::uint64_t bytesSent() const { return bytesSent_; }
    /** Payload DMAs that completed with a transient fault. */
    std::uint64_t dmaFaults() const { return dmaFaults_; }
    /** Payload DMAs re-issued to recover from those faults. */
    std::uint64_t dmaRetries() const { return dmaRetries_; }
    /** @} */

  private:
    struct Descriptor
    {
        std::uint32_t bytes;
        bool eager;
        unsigned slot;          // eager: receiver-side slot index
        LsAddr senderLsa;       // rendezvous: where to GET from
        bool consumed = false;  // rendezvous: receiver done
    };

    struct Pair
    {
        // shared_ptr: the rendezvous sender keeps a reference to its
        // descriptor while the deque mutates underneath.
        std::deque<std::shared_ptr<Descriptor>> queue;
        std::unique_ptr<sim::Signal> arrived;
        std::unique_ptr<sim::Signal> credit;
        std::unique_ptr<sim::Signal> consumed;
        unsigned credits;
        LsAddr slotBase;        // in the *receiver*'s LS
        unsigned nextSlot = 0;
    };

    Pair &pair(unsigned src, unsigned dst);
    sim::Task recoverDma(unsigned rank, unsigned tag);

    cell::CellSystem &sys_;
    CommunicatorParams params_;
    unsigned ranks_;
    std::vector<Pair> pairs_;           // ranks x ranks, src-major

    std::uint64_t eagerCount_ = 0;
    std::uint64_t rndvCount_ = 0;
    std::uint64_t bytesSent_ = 0;
    std::uint64_t dmaFaults_ = 0;
    std::uint64_t dmaRetries_ = 0;
};

} // namespace cellbw::msg

#endif // CELLBW_MSG_COMMUNICATOR_HH
