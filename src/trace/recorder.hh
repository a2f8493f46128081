/**
 * @file
 * Event tracing: records DMA commands and EIB packets so users can see
 * *why* a transfer pattern performs the way it does — the per-command
 * issue/complete timeline behind every number in the paper.
 *
 * Tracing is opt-in (CellSystem::enableTracing()) and adds no cost when
 * off.  Records can be dumped as CSV, rendered as an ASCII per-SPE
 * timeline, or exported as a Chrome-trace JSON file that loads straight
 * into chrome://tracing or https://ui.perfetto.dev.
 *
 * Long runs record millions of events; setCapacity() bounds the buffers
 * to the most recent N records per kind (a ring buffer), counting what
 * was discarded, so tracing a long run cannot exhaust host memory.
 */

#ifndef CELLBW_TRACE_RECORDER_HH
#define CELLBW_TRACE_RECORDER_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "spe/dma_types.hh"
#include "util/types.hh"

namespace cellbw::trace
{

/** One MFC command's lifetime. */
struct DmaRecord
{
    Tick enqueued;
    Tick issued;
    Tick completed;
    unsigned spe;
    spe::DmaDir dir;
    unsigned tag;
    std::uint32_t bytes;
    bool isList;
    bool isProxy;
    /** Fault the command completed with (None for a clean transfer). */
    spe::MfcError fault = spe::MfcError::None;
};

/** One data packet's trip over an EIB ring. */
struct EibRecord
{
    Tick requested;
    Tick granted;
    Tick delivered;
    unsigned chip;
    unsigned ring;
    unsigned srcRamp;
    unsigned dstRamp;
    std::uint32_t bytes;
};

class Recorder
{
  public:
    void dma(const DmaRecord &r);
    void eib(const EibRecord &r);

    /**
     * Bound each record buffer to the most recent @p maxRecords entries
     * (0, the default, keeps everything).  Overflowing records are
     * discarded oldest-first and counted in dmaDropped()/eibDropped();
     * the retained records stay in chronological insertion order.  The
     * buffers transiently hold up to twice the capacity so eviction is
     * amortized O(1) per record.
     */
    void setCapacity(std::size_t maxRecords);

    std::size_t capacity() const { return capacity_; }

    /** Records discarded to honor the capacity bound. */
    std::uint64_t dmaDropped() const { return dmaDropped_; }
    std::uint64_t eibDropped() const { return eibDropped_; }

    const std::vector<DmaRecord> &dmaRecords() const { return dma_; }
    const std::vector<EibRecord> &eibRecords() const { return eib_; }

    void
    clear()
    {
        dma_.clear();
        eib_.clear();
        dmaDropped_ = 0;
        eibDropped_ = 0;
    }

    /** CSV with a header row; one line per DMA command. */
    std::string dmaCsv() const;

    /** CSV with a header row; one line per EIB packet. */
    std::string eibCsv() const;

    /**
     * ASCII Gantt chart of the DMA records: one lane per SPE, time
     * bucketed into @p width columns.  '.' = command in queue,
     * 'G'/'P' = GET/PUT in flight, ' ' = idle.  @p width is clamped to
     * at least 1 column, so degenerate requests render instead of
     * indexing out of range.
     */
    std::string renderDmaTimeline(int width = 72) const;

    /**
     * Chrome-trace (Trace Event Format) JSON of both record kinds, for
     * chrome://tracing and Perfetto.  DMA commands become async
     * begin/end pairs on pid 1 (one tid per SPE) spanning the in-flight
     * window, with the queued time, tag, bytes, and fault status in
     * args; EIB packets become async pairs on pid 2 (one tid per
     * (chip, ring)).  Async events are used because both kinds overlap
     * freely within a lane (16 queue entries, pipelined packets).
     * Timestamps are microseconds, derived from @p nsPerTick.
     */
    std::string chromeTrace(double nsPerTick) const;

  private:
    void enforceCapacity();

    std::vector<DmaRecord> dma_;
    std::vector<EibRecord> eib_;
    std::size_t capacity_ = 0;
    std::uint64_t dmaDropped_ = 0;
    std::uint64_t eibDropped_ = 0;
};

} // namespace cellbw::trace

#endif // CELLBW_TRACE_RECORDER_HH
