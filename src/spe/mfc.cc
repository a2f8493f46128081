#include "spe/mfc.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"
#include "stats/metrics.hh"
#include "util/align.hh"
#include "util/strings.hh"

namespace cellbw::spe
{

Mfc::Mfc(std::string name, sim::EventQueue &eq, const sim::ClockSpec &clock,
         const MfcParams &params, unsigned speIndex)
    : sim::SimObject(std::move(name), eq), clock_(clock), params_(params),
      speIndex_(speIndex),
      faultRng_(params.faults.seed + 0x9E3779B97F4A7C15ull * speIndex),
      faultsEnabled_(params.faults.enabled())
{
    if (params_.queueDepth == 0 || params_.memoryTokens == 0 ||
        params_.lsLines == 0) {
        sim::fatal("%s: queue depth and line windows must be positive",
                   this->name().c_str());
    }
    const auto &f = params_.faults;
    if (f.dropRate < 0.0 || f.corruptRate < 0.0 || f.delayRate < 0.0 ||
        f.dropRate + f.corruptRate + f.delayRate > 1.0) {
        sim::fatal("%s: fault rates must be >= 0 and sum to <= 1",
                   this->name().c_str());
    }
    // Fixed command arena, one slot per queue entry.  The vector never
    // grows again; Command pointers stay valid for a command's lifetime.
    const std::size_t slots = params_.queueDepth;
    slotStore_.resize(slots);
    freeSlots_.reserve(slots);
    for (std::size_t i = slots; i-- > 0;)
        freeSlots_.push_back(&slotStore_[i]);
    queue_.reserve(slots);
    active_.resize(std::bit_ceil(slots), nullptr);
    activeMask_ = static_cast<std::uint32_t>(active_.size() - 1);
}

std::string
Mfc::drainReport() const
{
    std::string why;
    auto note = [&why](const std::string &part) {
        why += why.empty() ? part : ", " + part;
    };
    if (!queue_.empty())
        note(util::format("%zu command(s) queued", queue_.size()));
    if (memLinesInFlight_)
        note(util::format("%u memory token(s) held", memLinesInFlight_));
    if (lsLinesInFlight_)
        note(util::format("%u LS-window line(s) held", lsLinesInFlight_));
    if (tagPendingMask_)
        note(util::format("tag mask 0x%08x pending", tagPendingMask_));
    return why;
}

MfcError
Mfc::validate(LsAddr lsa, const SegList &segs, bool isList) const
{
    if (isList && (segs.empty() || segs.size() > maxListElements))
        return MfcError::BadList;
    LsAddr cursor = lsa;
    for (const auto &seg : segs) {
        if (isList)
            cursor = static_cast<LsAddr>(util::roundUp(cursor, 16));
        if (!util::isValidDmaSize(seg.size))
            return MfcError::InvalidSize;
        if (!util::isValidDmaAlignment(cursor, seg.ea, seg.size))
            return MfcError::Misaligned;
        cursor += seg.size;
        if (cursor > params_.lsSize)
            return MfcError::LsOverrun;
    }
    return MfcError::None;
}

void
Mfc::recordFault(DmaDir dir, bool isList, LsAddr lsa,
                 std::vector<ListElement> segs, unsigned tag,
                 MfcError code)
{
    faultLog_.push_back({tag, dir, isList, lsa, std::move(segs), code,
                         curTick()});
    ++commandsFaulted_;
}

bool
Mfc::enqueue(DmaDir dir, bool isList, LsAddr lsa, SegList segs,
             unsigned tag, Order order)
{
    if (tag >= numTags)
        sim::fatal("%s: DMA tag %u out of range", name().c_str(), tag);
    if (queue_.size() >= params_.queueDepth) {
        sim::fatal("%s: MFC command queue overflow; "
                   "co_await queueSpace() before issuing",
                   name().c_str());
    }
    if (!handler_)
        sim::fatal("%s: no DMA line handler installed", name().c_str());
    if (MfcError err = validate(lsa, segs, isList); err != MfcError::None) {
        // Recoverable rejection: nothing enters the queue, the error is
        // latched on the tag group for the program to poll.
        recordFault(dir, isList, lsa, segs.toVector(), tag, err);
        return false;
    }

    // Take a slot from the arena.  The queue-full check above bounds
    // live commands below the depth, so a slot is always free.
    Command *c = freeSlots_.back();
    freeSlots_.pop_back();
    *c = Command{};
    c->dir = dir;
    c->tag = tag;
    c->isList = isList;
    c->order = order;
    c->lsaStart = lsa;
    c->lsaCursor = lsa;
    for (const auto &seg : segs)
        c->totalBytes += seg.size;
    c->segs = std::move(segs);
    if (faultsEnabled_) {
        const auto &f = params_.faults;
        double u = faultRng_.uniformReal();
        if (u < f.dropRate) {
            c->injected = MfcError::Dropped;
            ++dropsInjected_;
        } else if (u < f.dropRate + f.corruptRate) {
            c->injected = MfcError::Corrupted;
            c->corruptPending = true;
            ++corruptionsInjected_;
        } else if (u < f.dropRate + f.corruptRate + f.delayRate) {
            c->extraDelay = f.delayTicks;
            ++delaysInjected_;
        }
    }
    queue_.push_back(c);
    // Queue-depth histogram: occupancy as seen by each accepted command.
    std::size_t depth = queue_.size();
    if (depth >= depthHist_.size())
        depthHist_.resize(depth + 1, 0);
    ++depthHist_[depth];
    ++tagPending_[tag];
    tagPendingMask_ |= 1u << tag;
    scheduleIssue();
    return true;
}

bool
Mfc::get(LsAddr lsa, EffAddr ea, std::uint32_t size, unsigned tag,
         Order order)
{
    return enqueue(DmaDir::Get, false, lsa, SegList(ea, size), tag,
                   order);
}

bool
Mfc::put(LsAddr lsa, EffAddr ea, std::uint32_t size, unsigned tag,
         Order order)
{
    return enqueue(DmaDir::Put, false, lsa, SegList(ea, size), tag,
                   order);
}

bool
Mfc::getList(LsAddr lsa, std::vector<ListElement> list, unsigned tag,
             Order order)
{
    return enqueue(DmaDir::Get, true, lsa, SegList(std::move(list)), tag,
                   order);
}

bool
Mfc::putList(LsAddr lsa, std::vector<ListElement> list, unsigned tag,
             Order order)
{
    return enqueue(DmaDir::Put, true, lsa, SegList(std::move(list)), tag,
                   order);
}

std::uint32_t
Mfc::tagFaultMask() const
{
    std::uint32_t mask = 0;
    for (const auto &f : faultLog_)
        mask |= 1u << f.tag;
    return mask;
}

unsigned
Mfc::tagFaultCount(unsigned tag) const
{
    unsigned n = 0;
    for (const auto &f : faultLog_)
        if (f.tag == tag)
            ++n;
    return n;
}

std::vector<Mfc::FaultRecord>
Mfc::takeFaults(unsigned tag)
{
    std::vector<FaultRecord> out;
    auto it = faultLog_.begin();
    while (it != faultLog_.end()) {
        if (it->tag == tag) {
            out.push_back(std::move(*it));
            it = faultLog_.erase(it);
        } else {
            ++it;
        }
    }
    return out;
}

bool
Mfc::issuable(const Command &c) const
{
    for (const Command *earlier : queue_) {
        if (earlier == &c)
            break;
        if (earlier->tag != c.tag || earlier->done)
            continue;
        // A fenced or barriered command waits for every earlier
        // incomplete command of its tag group.
        if (c.order != Order::None)
            return false;
        // Any command waits for an earlier incomplete barrier of its
        // tag group.
        if (earlier->order == Order::Barrier)
            return false;
    }
    return true;
}

void
Mfc::scheduleIssue()
{
    if (issueInProgress_)
        return;
    // First command that has not passed the issue engine yet and is
    // not held back by tag-group fences/barriers.  Commands of other
    // tag groups may overtake a blocked one, as on real hardware.
    Command *next = nullptr;
    for (Command *c : queue_) {
        if (!c->issued && issuable(*c)) {
            next = c;
            break;
        }
    }
    if (!next)
        return;

    issueInProgress_ = true;
    Tick occ_bus = params_.elemOverheadBus;
    if (next->isList)
        occ_bus += params_.listElemOverheadBus * next->segs.size();
    Tick start = std::max(curTick(), issueFreeAt_);
    issueFreeAt_ = start + clock_.busCycles(occ_bus);
    sim::TagScope tag(eventQueue(), sim::EventTag::Mfc);
    eventQueue().scheduleAt(issueFreeAt_, [this, next] {
        finishIssue(next);
    });
}

void
Mfc::finishIssue(Command *c)
{
    c->issued = true;
    issueInProgress_ = false;
    if (c->injected == MfcError::Dropped) {
        // The command occupied the issue engine but its lines are lost:
        // it completes immediately with error status and no data moved.
        c->allLinesIssued = true;
        commandComplete(c);
    } else {
        activePushBack(c);
    }
    scheduleIssue();
    tryIssueLines();
}

void
Mfc::tryIssueLines()
{
    // Round-robin over active commands, skipping those whose next line
    // has no token (memory) or window slot (LS) available, so LS
    // traffic is never head-of-line-blocked behind memory traffic or
    // vice versa.  Each attempt sends one line or rotates one blocked
    // command to the back of the ring.
    std::uint32_t attempts = activeCount_;
    while (attempts-- > 0 && activeCount_ > 0) {
        if (allActiveBlocked()) {
            // Every attempt left would only rotate a blocked command:
            // make those rotations in one step, modulo the ring size
            // (normally a whole number of turns, i.e. none).
            std::uint32_t turns = attempts + 1;
            while (turns >= activeCount_)
                turns -= activeCount_;
            while (turns-- > 0)
                activePushBack(activePopFront());
            return;
        }
        Command *c = activePopFront();
        const bool is_ls = c->nextLs;
        if (is_ls ? (lsLinesInFlight_ >= params_.lsLines)
                  : (memLinesInFlight_ >= params_.memoryTokens)) {
            activePushBack(c);          // rotate and try another command
            continue;
        }

        const ListElement &seg = c->segs[c->nextSeg];
        if (c->isList && c->segOffset == 0) {
            c->lsaCursor =
                static_cast<LsAddr>(util::roundUp(c->lsaCursor, 16));
        }
        std::uint32_t chunk =
            std::min(lineBytes, seg.size - c->segOffset);

        LineRequest req;
        req.speIndex = speIndex_;
        req.dir = c->dir;
        req.ea = seg.ea + c->segOffset;
        req.lsa = c->lsaCursor;
        req.bytes = chunk;
        if (c->corruptPending) {
            // An injected corruption damages one line of the command.
            req.corrupt = true;
            c->corruptPending = false;
        }
        req.done = LineDone{this,
                            static_cast<std::uint32_t>(c - slotStore_.data()),
                            static_cast<std::uint16_t>(chunk), is_ls};

        c->segOffset += chunk;
        c->lsaCursor += chunk;
        if (c->segOffset == seg.size) {
            ++c->nextSeg;
            c->segOffset = 0;
        }
        ++c->linesOutstanding;
        if (is_ls)
            ++lsLinesInFlight_;
        else
            ++memLinesInFlight_;
        ++linesSent_;

        if (c->nextSeg < c->segs.size()) {
            activePushBack(c);          // round-robin across commands
            ++attempts;                 // progress was made; keep going
        } else {
            c->allLinesIssued = true;
        }

        handler_(std::move(req));
    }
}

void
Mfc::lineDone(std::uint32_t slot, std::uint32_t bytes, bool isLs)
{
    Command *c = &slotStore_[slot];
    if (isLs)
        --lsLinesInFlight_;
    else
        --memLinesInFlight_;
    --c->linesOutstanding;
    bytesTransferred_ += bytes;
    if (c->allLinesIssued && c->linesOutstanding == 0)
        commandComplete(c);
    tryIssueLines();
}

void
Mfc::commandComplete(Command *c)
{
    if (c->extraDelay > 0) {
        // Injected delay: the transfer is done but completion (and with
        // it the tag status update) arrives late.
        Tick d = c->extraDelay;
        c->extraDelay = 0;
        sim::TagScope tag(eventQueue(), sim::EventTag::Mfc);
        eventQueue().schedule(d, [this, c] { finalizeCompletion(c); });
        return;
    }
    finalizeCompletion(c);
}

void
Mfc::finalizeCompletion(Command *c)
{
    c->done = true;
    if (c->injected != MfcError::None) {
        recordFault(c->dir, c->isList, c->lsaStart, c->segs.toVector(),
                    c->tag, c->injected);
    }
    if (completionHook_) {
        completionHook_({speIndex_, c->tag, c->dir, c->isList,
                         c->lsaStart, c->segs.data(), c->segs.size(),
                         c->injected});
    }
    if (tagPending_[c->tag] == 0)
        sim::panic("%s: tag %u underflow", name().c_str(), c->tag);
    if (--tagPending_[c->tag] == 0)
        tagPendingMask_ &= ~(1u << c->tag);
    ++commandsCompleted_;
    std::erase(queue_, c);
    // Recycle the arena slot; drop any list storage with it.  Nothing
    // references the command past this point: its line events have all
    // fired and a delayed completion is itself this function.
    c->segs = SegList();
    freeSlots_.push_back(c);
    wakeWaiters();
    // A completion may unblock a fenced/barriered command.
    scheduleIssue();
}

void
Mfc::wakeWaiters()
{
    // One queue slot opened: reserve it for one waiting producer so no
    // concurrently-running stream can steal it before the resume fires.
    if (!spaceWaiters_.empty() &&
        queue_.size() + reservedSlots_ < params_.queueDepth) {
        ++reservedSlots_;
        auto h = spaceWaiters_.front();
        spaceWaiters_.erase(spaceWaiters_.begin());
        eventQueue().schedule(0, [h] { h.resume(); });
    }
    // Wake every tag waiter whose mask is now clear.
    std::uint32_t pending = tagsPendingMask();
    for (auto it = tagWaiters_.begin(); it != tagWaiters_.end();) {
        if ((it->mask & pending) == 0) {
            auto h = it->h;
            eventQueue().schedule(0, [h] { h.resume(); });
            it = tagWaiters_.erase(it);
        } else {
            ++it;
        }
    }
}

void
Mfc::registerMetrics(stats::MetricsRegistry &reg,
                     const std::string &prefix) const
{
    reg.counter(prefix + ".commands").add(commandsCompleted_);
    reg.counter(prefix + ".bytes").add(bytesTransferred_);
    reg.counter(prefix + ".lines").add(linesSent_);
    reg.counter(prefix + ".faults").add(commandsFaulted_);
    reg.counter(prefix + ".drops_injected").add(dropsInjected_);
    reg.counter(prefix + ".corruptions_injected")
        .add(corruptionsInjected_);
    reg.counter(prefix + ".delays_injected").add(delaysInjected_);
    // The bucket bound (depth + 8) dates from when the histogram also
    // counted an 8-entry proxy queue, and every report uses it.  The
    // registry keeps the bound of a name's first registration, so an
    // experiment that sweeps the depth (abl_queue_depth starts at 1)
    // folds its deeper points into the last bucket; a bound of the
    // depth alone would fold more of them and change that report.
    auto &hist = reg.histogram(prefix + ".queue_depth",
                               params_.queueDepth + 8);
    for (std::size_t d = 0; d < depthHist_.size(); ++d)
        hist.addBucket(d, depthHist_[d]);
}

} // namespace cellbw::spe
