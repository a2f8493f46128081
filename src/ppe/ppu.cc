#include "ppe/ppu.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "stats/metrics.hh"
#include "util/align.hh"

namespace cellbw::ppe
{

Ppu::Ppu(std::string name, sim::EventQueue &eq, const sim::ClockSpec &clock,
         const PpuParams &params, mem::BackingStore *store)
    : sim::SimObject(std::move(name), eq), clock_(clock), params_(params),
      store_(store)
{
    if (params_.l1.lineBytes != params_.l2.lineBytes)
        sim::fatal("%s: L1/L2 line sizes must match", this->name().c_str());
    if (params_.l1.lineBytes > 256)
        sim::fatal("%s: line size above 256 bytes unsupported",
                   this->name().c_str());
    l1_ = std::make_unique<CacheArray>(params_.l1);
    l2_ = std::make_unique<CacheArray>(params_.l2);
    for (auto &t : threads_)
        t.lmq.assign(params_.lmqEntries, 0);
}

void
Ppu::warm(EffAddr base, std::uint64_t bytes)
{
    std::uint32_t line = params_.l1.lineBytes;
    for (EffAddr ea = util::roundDown(base, line); ea < base + bytes;
         ea += line) {
        l2_->insert(ea, false);
        l1_->insert(ea, false);
    }
}

sim::Task
Ppu::streamAccess(unsigned tid, EffAddr src, EffAddr dst,
                  std::uint64_t bytes, unsigned elemSize, MemOp op,
                  std::uint64_t *bytesCounted)
{
    if (tid >= numThreads)
        sim::fatal("%s: thread id %u out of range", name().c_str(), tid);
    if (elemSize != 1 && elemSize != 2 && elemSize != 4 && elemSize != 8 &&
        elemSize != 16) {
        sim::fatal("%s: element size %u not in {1,2,4,8,16}",
                   name().c_str(), elemSize);
    }
    const std::uint32_t line = params_.l1.lineBytes;
    if (bytes % line != 0)
        sim::fatal("%s: stream length must be line-aligned", name().c_str());

    ThreadState &t = threads_[tid];
    const bool do_load = (op == MemOp::Load || op == MemOp::Copy);
    const bool do_store = (op == MemOp::Store || op == MemOp::Copy);
    const unsigned ops = line / elemSize;

    // 16-byte elements go through the VMX unit, narrower ones are
    // scalar accesses.
    const bool vmx = elemSize >= 16;
    unsigned issue_per_line = 0;
    if (do_load)
        issue_per_line += ops * (vmx ? params_.vmxLoadCycles
                                     : params_.scalarLoadCycles);
    if (do_store)
        issue_per_line += ops * (vmx ? params_.vmxStoreCycles
                                     : params_.scalarStoreCycles);

    for (std::uint64_t off = 0; off < bytes; off += line) {
        // --- Issue phase: the shared 1-op/cycle load/store port. ---
        Tick istart = std::max(curTick(), issueFreeAt_);
        issueFreeAt_ = istart + issue_per_line;
        if (issueFreeAt_ > curTick())
            co_await sim::WaitUntil{eventQueue(), issueFreeAt_};

        // --- Load refill path. ---
        if (do_load) {
            EffAddr lea = src + off;
            if (!l1_->access(lea)) {
                // Stall while our LMQ slot is still in flight.
                Tick slot_free = t.lmq[t.lmqSlot];
                if (slot_free > curTick())
                    co_await sim::WaitUntil{eventQueue(), slot_free};
                Tick req = std::max(curTick(), t.reqFreeAt);
                t.reqFreeAt = req + params_.missRequestInterval;
                bool in_l2 = l2_->access(lea);
                Tick lat = in_l2 ? params_.l2Latency : params_.memLatency;
                t.lmq[t.lmqSlot] = req + lat;
                t.lmqSlot = (t.lmqSlot + 1) % params_.lmqEntries;
                l1_->insert(lea, false);
                if (!in_l2 && l2_->insert(lea, false)) {
                    // Dirty victim: writeback credit.
                    wbFreeAt_ = std::max(curTick(), wbFreeAt_) +
                                params_.wbInterval;
                }
            }
        }

        // --- Store path: write-through L1 with gather entries. ---
        if (do_store) {
            EffAddr sea = dst + off;
            bool l1_hit = l1_->access(sea);
            if (!l2_->touchDirty(sea)) {
                // Write-allocate: fetch the line into L2 first.
                Tick slot_free = t.lmq[t.lmqSlot];
                if (slot_free > curTick())
                    co_await sim::WaitUntil{eventQueue(), slot_free};
                Tick req = std::max(curTick(), t.reqFreeAt);
                t.reqFreeAt = req + params_.missRequestInterval;
                t.lmq[t.lmqSlot] = req + params_.memLatency;
                t.lmqSlot = (t.lmqSlot + 1) % params_.lmqEntries;
                if (l2_->insert(sea, true)) {
                    wbFreeAt_ = std::max(curTick(), wbFreeAt_) +
                                params_.wbInterval;
                }
            }
            Tick drain = l1_hit ? params_.storeDrainHit
                                : params_.storeDrainMiss;
            Tick line_drain = ops * drain;
            t.storeFreeAt = std::max(t.storeFreeAt, curTick()) + line_drain;
            Tick slack = params_.storeQueueLines * line_drain;
            if (t.storeFreeAt > curTick() + slack) {
                co_await sim::WaitUntil{eventQueue(),
                                        t.storeFreeAt - slack};
            }
            // Shared writeback queue backpressure.
            Tick wb_slack = params_.wbQueueLines * params_.wbInterval;
            if (wbFreeAt_ > curTick() + wb_slack) {
                co_await sim::WaitUntil{eventQueue(),
                                        wbFreeAt_ - wb_slack};
            }
        }

        // --- Data movement (copy only; loads/stores have no visible
        //     side effect beyond timing). ---
        if (op == MemOp::Copy && store_) {
            std::uint8_t buf[256];
            store_->read(src + off, buf, line);
            store_->write(dst + off, buf, line);
        }

        if (bytesCounted)
            *bytesCounted += (op == MemOp::Copy) ? 2ull * line : line;
    }

    // Drain: wait for outstanding refills and the store pipe.
    Tick drain_to = curTick();
    for (Tick c : t.lmq)
        drain_to = std::max(drain_to, c);
    drain_to = std::max(drain_to, t.storeFreeAt);
    if (do_store)
        drain_to = std::max(drain_to, wbFreeAt_);
    if (drain_to > curTick())
        co_await sim::WaitUntil{eventQueue(), drain_to};
}

void
Ppu::registerMetrics(stats::MetricsRegistry &reg,
                     const std::string &prefix) const
{
    const CacheArray *levels[] = {l1_.get(), l2_.get()};
    const char *names[] = {".l1", ".l2"};
    for (unsigned i = 0; i < 2; ++i) {
        std::string base = prefix + names[i];
        reg.counter(base + ".hits").add(levels[i]->hits());
        reg.counter(base + ".misses").add(levels[i]->misses());
        reg.counter(base + ".evictions").add(levels[i]->evictions());
    }
}

} // namespace cellbw::ppe
