#include "trace/recorder.hh"

#include <algorithm>

#include "stats/json_writer.hh"
#include "util/strings.hh"

namespace cellbw::trace
{

void
Recorder::dma(const DmaRecord &r)
{
    dma_.push_back(r);
    if (capacity_ && dma_.size() >= 2 * capacity_) {
        std::size_t evict = dma_.size() - capacity_;
        dma_.erase(dma_.begin(),
                   dma_.begin() + static_cast<std::ptrdiff_t>(evict));
        dmaDropped_ += evict;
    }
}

void
Recorder::eib(const EibRecord &r)
{
    eib_.push_back(r);
    if (capacity_ && eib_.size() >= 2 * capacity_) {
        std::size_t evict = eib_.size() - capacity_;
        eib_.erase(eib_.begin(),
                   eib_.begin() + static_cast<std::ptrdiff_t>(evict));
        eibDropped_ += evict;
    }
}

void
Recorder::setCapacity(std::size_t maxRecords)
{
    capacity_ = maxRecords;
    if (capacity_ == 0)
        return;
    if (dma_.size() > capacity_) {
        std::size_t evict = dma_.size() - capacity_;
        dma_.erase(dma_.begin(),
                   dma_.begin() + static_cast<std::ptrdiff_t>(evict));
        dmaDropped_ += evict;
    }
    if (eib_.size() > capacity_) {
        std::size_t evict = eib_.size() - capacity_;
        eib_.erase(eib_.begin(),
                   eib_.begin() + static_cast<std::ptrdiff_t>(evict));
        eibDropped_ += evict;
    }
}

std::string
Recorder::dmaCsv() const
{
    std::string out =
        "enqueued,issued,completed,spe,dir,tag,bytes,list,proxy,fault\n";
    for (const auto &r : dma_) {
        out += util::format(
            "%llu,%llu,%llu,%u,%s,%u,%u,%d,%d,%s\n",
            (unsigned long long)r.enqueued, (unsigned long long)r.issued,
            (unsigned long long)r.completed, r.spe,
            r.dir == spe::DmaDir::Get ? "get" : "put", r.tag, r.bytes,
            r.isList ? 1 : 0, r.isProxy ? 1 : 0, spe::toString(r.fault));
    }
    return out;
}

std::string
Recorder::eibCsv() const
{
    std::string out =
        "requested,granted,delivered,chip,ring,src,dst,bytes\n";
    for (const auto &r : eib_) {
        out += util::format(
            "%llu,%llu,%llu,%u,%u,%u,%u,%u\n",
            (unsigned long long)r.requested,
            (unsigned long long)r.granted,
            (unsigned long long)r.delivered, r.chip, r.ring, r.srcRamp,
            r.dstRamp, r.bytes);
    }
    return out;
}

std::string
Recorder::chromeTrace(double nsPerTick) const
{
    stats::JsonWriter w;
    auto us = [&](Tick t) {
        return static_cast<double>(t) * nsPerTick / 1000.0;
    };

    w.beginObject();
    w.key("displayTimeUnit").value("ns");
    w.key("traceEvents").beginArray();

    // Process/thread naming metadata so the viewer shows real labels.
    auto meta = [&](const char *what, unsigned pid, int tid,
                    const std::string &label) {
        w.beginObject();
        w.key("name").value(what);
        w.key("ph").value("M");
        w.key("pid").value(pid);
        if (tid >= 0)
            w.key("tid").value(static_cast<unsigned>(tid));
        w.key("args").beginObject().key("name").value(label).endObject();
        w.endObject();
    };
    meta("process_name", 1, -1, "MFC DMA commands");
    meta("process_name", 2, -1, "EIB packets");

    unsigned max_spe = 0;
    for (const auto &r : dma_)
        max_spe = std::max(max_spe, r.spe);
    if (!dma_.empty())
        for (unsigned s = 0; s <= max_spe; ++s)
            meta("thread_name", 1, static_cast<int>(s),
                 util::format("spe%u", s));

    // DMA commands overlap freely within an SPE (the MFC queue holds 16
    // of them), so each becomes an async begin/end pair, not a complete
    // ("X") slice — overlapping X slices on one tid confuse the viewer.
    std::uint64_t next_id = 1;
    for (const auto &r : dma_) {
        std::string name =
            util::format("%s%s %s",
                         r.dir == spe::DmaDir::Get ? "get" : "put",
                         r.isList ? "l" : "",
                         util::bytesToString(r.bytes).c_str());
        w.beginObject();
        w.key("name").value(name);
        w.key("cat").value("dma");
        w.key("ph").value("b");
        w.key("id").value(next_id);
        w.key("pid").value(1u);
        w.key("tid").value(r.spe);
        w.key("ts").value(us(r.issued));
        w.key("args").beginObject();
        w.key("tag").value(r.tag);
        w.key("bytes").value(r.bytes);
        w.key("queued_ticks").value(static_cast<std::uint64_t>(
            r.issued - r.enqueued));
        w.key("proxy").value(r.isProxy);
        w.key("fault").value(spe::toString(r.fault));
        w.endObject();
        w.endObject();

        w.beginObject();
        w.key("name").value(name);
        w.key("cat").value("dma");
        w.key("ph").value("e");
        w.key("id").value(next_id);
        w.key("pid").value(1u);
        w.key("tid").value(r.spe);
        w.key("ts").value(us(r.completed));
        w.endObject();
        ++next_id;
    }

    for (const auto &r : eib_) {
        unsigned tid = r.chip * 16 + r.ring;
        std::string name = util::format("ramp%u->ramp%u", r.srcRamp,
                                        r.dstRamp);
        w.beginObject();
        w.key("name").value(name);
        w.key("cat").value("eib");
        w.key("ph").value("b");
        w.key("id").value(next_id);
        w.key("pid").value(2u);
        w.key("tid").value(tid);
        w.key("ts").value(us(r.granted));
        w.key("args").beginObject();
        w.key("bytes").value(r.bytes);
        w.key("wait_ticks").value(static_cast<std::uint64_t>(
            r.granted - r.requested));
        w.endObject();
        w.endObject();

        w.beginObject();
        w.key("name").value(name);
        w.key("cat").value("eib");
        w.key("ph").value("e");
        w.key("id").value(next_id);
        w.key("pid").value(2u);
        w.key("tid").value(tid);
        w.key("ts").value(us(r.delivered));
        w.endObject();
        ++next_id;
    }

    w.endArray();
    if (dmaDropped_ || eibDropped_) {
        w.key("dropped").beginObject();
        w.key("dma").value(dmaDropped_);
        w.key("eib").value(eibDropped_);
        w.endObject();
    }
    w.endObject();
    return w.str();
}

std::string
Recorder::renderDmaTimeline(int width) const
{
    if (dma_.empty())
        return "(no DMA records)\n";

    // A degenerate width used to make the scale divide by zero and feed
    // std::clamp a lo > hi range (UB); render at least one column.
    width = std::max(width, 1);

    Tick t0 = maxTick, t1 = 0;
    unsigned max_spe = 0;
    for (const auto &r : dma_) {
        t0 = std::min(t0, r.enqueued);
        t1 = std::max(t1, r.completed);
        max_spe = std::max(max_spe, r.spe);
    }
    if (t1 <= t0)
        t1 = t0 + 1;
    double scale = static_cast<double>(width) /
                   static_cast<double>(t1 - t0);

    auto col = [&](Tick t) {
        auto c = static_cast<int>((t - t0) * scale);
        return std::clamp(c, 0, width - 1);
    };

    std::string out = util::format(
        "DMA timeline: ticks %llu..%llu, %d columns "
        "('.'=queued, G/P=in flight, g/p=faulted, *=both)\n",
        (unsigned long long)t0, (unsigned long long)t1, width);
    for (unsigned s = 0; s <= max_spe; ++s) {
        std::string lane(static_cast<size_t>(width), ' ');
        for (const auto &r : dma_) {
            if (r.spe != s)
                continue;
            char mark = (r.dir == spe::DmaDir::Get) ? 'G' : 'P';
            if (r.fault != spe::MfcError::None)
                mark = (r.dir == spe::DmaDir::Get) ? 'g' : 'p';
            for (int c = col(r.enqueued); c < col(r.issued); ++c)
                if (lane[static_cast<size_t>(c)] == ' ')
                    lane[static_cast<size_t>(c)] = '.';
            for (int c = col(r.issued); c <= col(r.completed); ++c) {
                char &cell = lane[static_cast<size_t>(c)];
                if (cell == ' ' || cell == '.')
                    cell = mark;
                else if (cell != mark)
                    cell = '*';
            }
        }
        out += util::format("  spe%u |%s|\n", s, lane.c_str());
    }
    return out;
}

} // namespace cellbw::trace
