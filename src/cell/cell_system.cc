#include "cell/cell_system.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "stats/metrics.hh"
#include "util/align.hh"
#include "util/strings.hh"

namespace cellbw::cell
{

CellSystem::CellSystem(const CellConfig &cfg, std::uint64_t placementSeed)
    : cfg_(cfg), placementSeed_(placementSeed)
{
    unsigned slots = cfg_.numChips * eib::numPhysicalSpes;
    if (cfg_.numChips < 1) {
        sim::fatal("numChips must be at least 1");
    } else if (cfg_.numChips > kMaxChips) {
        sim::fatal("numChips %u exceeds the flight handle's %u-bit chip "
                   "field (max %u chips)", cfg_.numChips,
                   32 - kChipShift, kMaxChips);
    }
    if (cfg_.numSpes == 0 || cfg_.numSpes > slots)
        sim::fatal("numSpes must be 1..%u with %u chip(s)", slots,
                   cfg_.numChips);
    // The cluster shape is authoritative here: tests and workloads set
    // numChips/numBlades on the CellConfig directly, so sync the
    // memory system's copy instead of trusting fromOptions to have run.
    cfg_.memory.numChips = cfg_.numChips;
    cfg_.memory.numBlades = cfg_.numBlades;
    const auto shape = eib::ClusterShape::of(
        std::max(cfg_.numChips, 2u), cfg_.numBlades);
    if (!shape.valid()) {
        sim::fatal("invalid cluster shape: %u chips on %u blades",
                   cfg_.numChips, cfg_.numBlades);
    }

    // Each chip is a partition; the smallest link crossing latency is
    // the conservative lookahead (nothing on one chip can affect
    // another sooner than one crossing).
    Tick lookahead = cfg_.memory.ioLink.crossingLatency;
    shape.forEachLink([&](unsigned, unsigned, bool interBlade) {
        if (interBlade) {
            lookahead =
                std::min(lookahead, cfg_.memory.bladeLink.crossingLatency);
        }
    });
    engine_ =
        std::make_unique<sim::PartitionedEngine>(cfg_.numChips, lookahead);
    if (cfg_.numChips == 1) {
        // The far bank has no partition of its own: both banks, and
        // the IOIF between them, live on chip 0's queue.
        memory_ =
            std::make_unique<mem::MemorySystem>("mem", queue(0), cfg_.memory);
    } else {
        std::vector<sim::EventQueue *> bankQueues;
        for (unsigned c = 0; c < cfg_.numChips; ++c)
            bankQueues.push_back(&queue(c));
        memory_ = std::make_unique<mem::MemorySystem>(
            "mem", queue(0), cfg_.memory, bankQueues);
        memory_->links().setPartitioned(
            [this](unsigned c) { return &queue(c); },
            [this](unsigned src, unsigned dst, Tick when,
                   mem::IoLink::CrossingFn &&fn) {
                engine_->post(src, dst, when, std::move(fn));
            });
        memory_->setPartitioned([this](unsigned src, unsigned dst,
                                       Tick when,
                                       mem::MemorySystem::CrossFn &&fn) {
            engine_->post(src, dst, when, std::move(fn));
        });
    }
    for (unsigned c = 0; c < cfg_.numChips; ++c) {
        eibs_.push_back(std::make_unique<eib::Eib>(
            util::format("eib%u", c), queue(c), cfg_.clock, cfg_.eib));
    }
    ppu_ = std::make_unique<ppe::Ppu>("ppe", queue(0), cfg_.clock,
                                      cfg_.ppu, &memory_->store());
    arenas_.resize(cfg_.numChips);

    buildPlacement(placementSeed);
    // Each run draws its own fault sequence: the run's placement seed
    // is folded into the configured base fault seed (the per-SPE mix
    // happens inside the MFC).
    spe::SpeParams sp = cfg_.spe;
    sp.mfc.faults.seed ^= placementSeed * 0x9E3779B97F4A7C15ull;
    for (unsigned i = 0; i < cfg_.numSpes; ++i) {
        unsigned chip = placement_[i] / eib::numPhysicalSpes;
        auto s = std::make_unique<spe::Spe>(
            util::format("spe%u", i), queue(chip), cfg_.clock, sp, i);
        s->setPhysicalSpe(placement_[i],
                          eib::speRamp(placement_[i] %
                                       eib::numPhysicalSpes));
        s->mfc().setLineHandler(
            [this](spe::LineRequest &&req) { routeLine(req); });
        if (cfg_.verify) {
            s->mfc().setCompletionHook(
                [this](const spe::Mfc::Completion &done) {
                    verifyCompletion(done);
                });
        }
        spes_.push_back(std::move(s));
    }

    if (cfg_.simProfile)
        engine_->setProfiling(true);
}

CellSystem::~CellSystem() = default;

void
CellSystem::buildPlacement(std::uint64_t seed)
{
    unsigned slots = cfg_.numChips * eib::numPhysicalSpes;
    switch (cfg_.affinity) {
      case AffinityPolicy::Random: {
        sim::Rng rng(seed);
        placement_ = rng.permutation(slots);
        break;
      }
      case AffinityPolicy::Linear:
        placement_.resize(slots);
        for (unsigned i = 0; i < slots; ++i)
            placement_[i] = i;
        break;
      case AffinityPolicy::Paired: {
        // Physical SPE indices in ring-adjacent pairs: positions
        // 1,2 / 3,4 / 7,8 / 9,10 on each die.
        static const std::uint32_t chip_pairs[] = {1, 3, 5, 7, 6, 4, 2, 0};
        placement_.clear();
        for (unsigned c = 0; c < cfg_.numChips; ++c)
            for (auto p : chip_pairs)
                placement_.push_back(p + c * eib::numPhysicalSpes);
        break;
      }
    }
}

spe::Spe &
CellSystem::spe(unsigned logical)
{
    if (logical >= spes_.size())
        sim::fatal("logical SPE %u out of range (%zu present)", logical,
                   spes_.size());
    return *spes_[logical];
}

eib::Eib &
CellSystem::eib(unsigned chip)
{
    if (chip >= eibs_.size())
        sim::fatal("chip %u out of range (%zu present)", chip,
                   eibs_.size());
    return *eibs_[chip];
}

unsigned
CellSystem::physicalOf(unsigned logical) const
{
    if (logical >= cfg_.numSpes)
        sim::fatal("logical SPE %u out of range", logical);
    return placement_[logical];
}

unsigned
CellSystem::chipOf(unsigned logical) const
{
    return physicalOf(logical) / eib::numPhysicalSpes;
}

unsigned
CellSystem::rampOf(unsigned logical) const
{
    return eib::speRamp(physicalOf(logical) % eib::numPhysicalSpes);
}

EffAddr
CellSystem::malloc(std::uint64_t bytes)
{
    return malloc(bytes, cfg_.numa);
}

EffAddr
CellSystem::malloc(std::uint64_t bytes, const mem::NumaPolicy &policy)
{
    EffAddr ea = memory_->alloc(bytes, policy);
    if (ea + bytes >= lsEaBase)
        sim::fatal("main memory exhausted");
    return ea;
}

EffAddr
CellSystem::lsEa(unsigned logical, LsAddr lsa) const
{
    if (logical >= cfg_.numSpes)
        sim::fatal("lsEa: logical SPE %u out of range", logical);
    return lsEaBase + static_cast<EffAddr>(logical) * lsEaStride + lsa;
}

void
CellSystem::launch(sim::Task task)
{
    programs_.push_back(std::move(task));
    programs_.back().start();
}

void
CellSystem::run()
{
    engine_->run();
    for (auto &p : programs_) {
        p.rethrow();
        if (!p.done()) {
            sim::fatal("deadlock: a launched program never finished "
                       "(waiting on a DMA tag or signal that no one "
                       "completes?)");
        }
    }
    checkDrained();
    if (verifyStats_.divergences) {
        sim::fatal("verify: %llu transfer(s) diverged from the backing "
                   "store; first: %s",
                   (unsigned long long)verifyStats_.divergences,
                   verifyStats_.firstDivergence.c_str());
    }
}

void
CellSystem::checkDrained() const
{
    // With every queue empty, nothing can still be in flight: a line
    // left holding a slot, a token or a tag was lost on its way home.
    for (unsigned c = 0; c < arenas_.size(); ++c) {
        if (std::size_t n = arenas_[c].inUse())
            sim::panic("drain check: chip %u flight arena still holds "
                       "%zu line(s)", c, n);
    }
    for (const auto &s : spes_) {
        std::string why = s->mfc().drainReport();
        if (!why.empty())
            sim::panic("drain check: %s not drained: %s",
                       s->mfc().name().c_str(), why.c_str());
    }
    if (engine_->undelivered() || engine_->parkedClosures()) {
        sim::panic("drain check: partitioned engine still holds %zu "
                   "undelivered message(s) and %zu parked closure(s)",
                   engine_->undelivered(), engine_->parkedClosures());
    }
}

void
CellSystem::routeLine(const spe::LineRequest &req)
{
    if (req.speIndex >= spes_.size())
        sim::panic("DMA line from unknown SPE %u", req.speIndex);
    if (isLsEa(req.ea))
        routeLocalStore(req);
    else
        routeMemory(req);
}

/**
 * Memory routing.  The line rides the issuing SPE's EIB between its
 * ramp and either the local MIC (bank on the same chip) or the IOIF
 * ramp (bank on another chip).  Chip-local lines stay entirely on the
 * issuing chip's queue.
 *
 * A crossing line's far-side stages (the target chip's bank and EIB)
 * run on the far partition.  They carry their routing state ({ea,
 * bytes, handle, home and far chips}) by value inside the
 * cross-partition messages; the 128-byte payload travels in the line's
 * home flight slot.  The partitions never run concurrently, and while
 * a line is away no home-chip stage touches its slot, so the far side
 * may fill (GET) or drain (PUT) flight(h).payload directly and every
 * crossing message stays a few words long.  Multi-hop routes (other
 * blade) serialize on every link: LinkGraph::sendData re-posts from
 * each intermediate chip's partition.
 *
 * The single-chip blade's far bank (bank >= numChips) has no partition:
 * its command pays the IOIF crossing, the bank is serviced on the
 * issuing chip's queue, and the line serializes on the IOIF, but no
 * far EIB is simulated.
 *
 * Home-chip stages address the in-flight line by arena handle, so
 * their closures are {this, handle} — inline-stored, allocation-free.
 */
void
CellSystem::routeMemory(const spe::LineRequest &req)
{
    unsigned bank = memory_->bankOf(req.ea);
    unsigned sc = chipOf(req.speIndex);
    bool isGet = req.dir == spe::DmaDir::Get;
    std::uint32_t bytes = req.bytes;
    EffAddr ea = req.ea;
    spe::Spe *s = spes_[req.speIndex].get();

    std::uint32_t h = acquireFlight(sc, req);
    Flight &f = flight(h);
    f.bank = static_cast<std::uint8_t>(bank);
    f.srcChip = static_cast<std::uint8_t>(sc);
    f.crossing = (bank != sc);

    if (!isGet) {
        // LS read, data ride out, (link crossing,) bank write.
        Tick ls_done = s->ls().reservePort(bytes);
        queue(sc).scheduleAt(ls_done, [this, h] { memPutRide(h); });
        return;
    }
    // Command phase to the controller, bank read, (link crossing,)
    // data ride home, LS write.  A crossing command pays every link of
    // the route (latency only — commands are tiny).
    Tick cmd = cfg_.clock.busCycles(cfg_.eib.cmdLatencyBus);
    if (f.crossing)
        cmd += memory_->links().pathLatency(sc, bank);
    if (!farPartition(f)) {
        queue(sc).schedule(cmd, [this, h] { memGetAccess(h); });
        return;
    }
    engine_->post(sc, bank, queue(sc).now() + cmd,
                  [this, ea, bytes, h, sc, bank] {
                      memGetFar(ea, bytes, h, sc, bank);
                  });
}

void
CellSystem::memGetAccess(std::uint32_t h)
{
    Flight &f = flight(h);
    memory_->bank(f.bank).access(f.req.ea, f.req.bytes, false, [this, h] {
        Flight &g = flight(h);
        if (!g.crossing) {
            memGetRide(h);
            return;
        }
        // The single-chip far bank: the data crosses the IOIF home.
        memory_->links().sendData(g.bank, g.srcChip, g.req.bytes,
                                  [this, h] { memGetRide(h); });
    });
}

void
CellSystem::memGetRide(std::uint32_t h)
{
    Flight &f = flight(h);
    eib::RampPos from = f.crossing ? eib::ioif0Ramp : eib::micRamp;
    eibs_[f.srcChip]->transfer(from, rampOf(f.req.speIndex), f.req.bytes,
                               [this, h] { memGetLand(h); });
}

void
CellSystem::memGetLand(std::uint32_t h)
{
    Flight &f = flight(h);
    spe::Spe *s = spes_[f.req.speIndex].get();
    Tick done_at = s->ls().reservePort(f.req.bytes);
    std::uint8_t buf[spe::lineBytes];
    // A line from another partition came home in the flight's payload.
    std::uint8_t *data = f.payload;
    if (!farPartition(f)) {
        memory_->store().read(f.req.ea, buf, f.req.bytes);
        data = buf;
    }
    if (f.req.corrupt)
        data[0] ^= 0xA5;
    s->ls().write(f.req.lsa, data, f.req.bytes);
    unsigned chip = f.srcChip;
    const spe::LineDone done = f.req.done;
    releaseFlight(h);
    queue(chip).scheduleAt(done_at, done);
}

void
CellSystem::memGetFar(EffAddr ea, std::uint32_t bytes, std::uint32_t h,
                      unsigned homeChip, unsigned farChip)
{
    memory_->bank(farChip).access(
        ea, bytes, false, [this, ea, bytes, h, homeChip, farChip] {
            memGetFarRide(ea, bytes, h, homeChip, farChip);
        });
}

void
CellSystem::memGetFarRide(EffAddr ea, std::uint32_t bytes,
                          std::uint32_t h, unsigned homeChip,
                          unsigned farChip)
{
    eibs_[farChip]->transfer(eib::micRamp, eib::ioif0Ramp, bytes,
                             [this, ea, bytes, h, homeChip, farChip] {
                                 memGetFarCross(ea, bytes, h, homeChip,
                                                farChip);
                             });
}

void
CellSystem::memGetFarCross(EffAddr ea, std::uint32_t bytes,
                           std::uint32_t h, unsigned homeChip,
                           unsigned farChip)
{
    // The data leaves the far chip here: read it out of the backing
    // store into the home flight slot now, then serialize it on every
    // link of the route back.
    memory_->store().read(ea, flight(h).payload, bytes);
    memory_->links().sendData(farChip, homeChip, bytes,
                              [this, h] { memGetRide(h); });
}

void
CellSystem::memPutRide(std::uint32_t h)
{
    Flight &f = flight(h);
    eib::RampPos to = f.crossing ? eib::ioif0Ramp : eib::micRamp;
    eibs_[f.srcChip]->transfer(rampOf(f.req.speIndex), to, f.req.bytes,
                               [this, h] {
                                   if (farPartition(flight(h)))
                                       memPutCross(h);
                                   else
                                       memPutStore(h);
                               });
}

void
CellSystem::memPutStore(std::uint32_t h)
{
    Flight &f = flight(h);
    spe::Spe *s = spes_[f.req.speIndex].get();
    std::uint8_t buf[spe::lineBytes];
    s->ls().read(f.req.lsa, buf, f.req.bytes);
    if (f.req.corrupt)
        buf[0] ^= 0xA5;
    memory_->store().write(f.req.ea, buf, f.req.bytes);
    if (!f.crossing) {
        memPutBank(h);
        return;
    }
    // The single-chip far bank: the data crosses the IOIF first.
    memory_->links().sendData(f.srcChip, f.bank, f.req.bytes,
                              [this, h] { memPutBank(h); });
}

void
CellSystem::memPutBank(std::uint32_t h)
{
    Flight &f = flight(h);
    EffAddr ea = f.req.ea;
    std::uint32_t bytes = f.req.bytes;
    unsigned bank = f.bank;
    const spe::LineDone done = f.req.done;
    releaseFlight(h);
    memory_->bank(bank).access(ea, bytes, true, done);
}

void
CellSystem::memPutCross(std::uint32_t h)
{
    Flight &f = flight(h);
    spes_[f.req.speIndex]->ls().read(f.req.lsa, f.payload, f.req.bytes);
    if (f.req.corrupt)
        f.payload[0] ^= 0xA5;
    EffAddr ea = f.req.ea;
    std::uint32_t bytes = f.req.bytes;
    unsigned home = f.srcChip;
    unsigned far = f.bank;
    memory_->links().sendData(
        home, far, bytes, [this, ea, bytes, h, home, far] {
            // Far chip: land the data and ride the far EIB to the MIC.
            memory_->store().write(ea, flight(h).payload, bytes);
            eibs_[far]->transfer(eib::ioif0Ramp, eib::micRamp, bytes,
                                 [this, ea, bytes, h, home, far] {
                                     memPutFarRide(ea, bytes, h, home,
                                                   far);
                                 });
        });
}

void
CellSystem::memPutFarRide(EffAddr ea, std::uint32_t bytes,
                          std::uint32_t h, unsigned homeChip,
                          unsigned farChip)
{
    Tick completion =
        memory_->bank(farChip).reserveAccess(ea, bytes, true);
    // The write acknowledgment crosses back to the issuing chip
    // (latency only, every link of the route).
    const Tick L = memory_->links().pathLatency(farChip, homeChip);
    engine_->post(farChip, homeChip, completion + L,
                  [this, h] { finishFlight(h); });
}

/**
 * LS-to-LS routing.  Same-chip transfers stay on their
 * chip's queue.  Cross-chip GETs start on the data-holding chip (the
 * command crosses first); cross-chip PUTs read locally into the flight
 * slot, cross, and land from that slot on the destination chip.
 */
void
CellSystem::routeLocalStore(const spe::LineRequest &req)
{
    EffAddr rel = req.ea - lsEaBase;
    auto target_idx = static_cast<unsigned>(rel / lsEaStride);
    auto off = static_cast<LsAddr>(rel % lsEaStride);
    if (target_idx >= spes_.size()) {
        sim::fatal("DMA to LS aperture of SPE %u, which does not exist",
                   target_idx);
    }
    if (target_idx == req.speIndex)
        sim::fatal("DMA to the issuing SPE's own LS aperture");

    bool isGet = req.dir == spe::DmaDir::Get;
    unsigned issuer = req.speIndex;
    unsigned ic = chipOf(issuer);
    unsigned pc = chipOf(target_idx);
    std::uint32_t bytes = req.bytes;

    std::uint32_t h = acquireFlight(ic, req);
    Flight &f = flight(h);
    f.srcSpe = static_cast<std::uint16_t>(isGet ? target_idx : issuer);
    f.dstSpe = static_cast<std::uint16_t>(isGet ? issuer : target_idx);
    f.srcLsa = isGet ? off : f.req.lsa;
    f.dstLsa = isGet ? f.req.lsa : off;
    f.srcChip = static_cast<std::uint8_t>(ic);
    f.crossing = (ic != pc);

    if (!f.crossing || !isGet) {
        // Command latency to reach a remote MFC (GET only; PUT data
        // originates locally).
        Tick cmd =
            isGet ? cfg_.clock.busCycles(cfg_.remoteCmdLatencyBus) : 0;
        queue(ic).schedule(cmd, [this, h] { lsRead(h); });
        return;
    }
    // A crossing GET's command crosses to the data-holding chip;
    // everything the far side needs travels by value.
    Tick cmd = cfg_.clock.busCycles(cfg_.remoteCmdLatencyBus) +
               memory_->links().pathLatency(ic, pc);
    std::uint16_t peer = f.srcSpe;
    LsAddr peerLsa = f.srcLsa;
    engine_->post(ic, pc, queue(ic).now() + cmd,
                  [this, peer, peerLsa, bytes, h, ic, pc] {
                      Tick read_done = spes_[peer]->ls().reservePort(bytes);
                      queue(pc).scheduleAt(
                          read_done, [this, peer, peerLsa, bytes, h, ic] {
                              lsGetFarRideFrom(peer, peerLsa, bytes, h, ic);
                          });
                  });
}

void
CellSystem::lsRead(std::uint32_t h)
{
    Flight &f = flight(h);
    Tick read_done = spes_[f.srcSpe]->ls().reservePort(f.req.bytes);
    queue(f.srcChip).scheduleAt(read_done, [this, h] { lsRide(h); });
}

void
CellSystem::lsRide(std::uint32_t h)
{
    Flight &f = flight(h);
    if (!f.crossing) {
        eibs_[f.srcChip]->transfer(rampOf(f.srcSpe), rampOf(f.dstSpe),
                                   f.req.bytes,
                                   [this, h] { lsLand(h); });
        return;
    }
    // Crossing PUT: the local read is done, ride to the IOIF ramp.
    eibs_[f.srcChip]->transfer(rampOf(f.srcSpe), eib::ioif0Ramp,
                               f.req.bytes,
                               [this, h] { lsPutCross(h); });
}

void
CellSystem::lsLand(std::uint32_t h)
{
    Flight &f = flight(h);
    spe::Spe *dst = spes_[f.dstSpe].get();
    Tick done_at = dst->ls().reservePort(f.req.bytes);
    std::uint8_t buf[spe::lineBytes];
    // A crossing GET's line came home in the flight's payload.
    std::uint8_t *data = f.payload;
    if (!f.crossing) {
        spes_[f.srcSpe]->ls().read(f.srcLsa, buf, f.req.bytes);
        data = buf;
    }
    if (f.req.corrupt)
        data[0] ^= 0xA5;
    dst->ls().write(f.dstLsa, data, f.req.bytes);
    unsigned chip = f.srcChip;
    const spe::LineDone done = f.req.done;
    releaseFlight(h);
    queue(chip).scheduleAt(done_at, done);
}

void
CellSystem::lsGetFarRideFrom(std::uint16_t peer, LsAddr peerLsa,
                             std::uint32_t bytes, std::uint32_t h,
                             unsigned homeChip)
{
    // chipOf only reads the placement table, which is immutable once
    // the system is built, so the far partition may call it.
    unsigned peerChip = chipOf(peer);
    eibs_[peerChip]->transfer(
        rampOf(peer), eib::ioif0Ramp, bytes,
        [this, peer, peerLsa, bytes, h, homeChip, peerChip] {
            // The data leaves the peer chip: read the peer LS into the
            // home flight slot now, then cross home.
            spes_[peer]->ls().read(peerLsa, flight(h).payload, bytes);
            memory_->links().sendData(peerChip, homeChip, bytes,
                                      [this, h] { lsGetHome(h); });
        });
}

void
CellSystem::lsGetHome(std::uint32_t h)
{
    Flight &f = flight(h);
    eibs_[f.srcChip]->transfer(eib::ioif0Ramp, rampOf(f.dstSpe),
                               f.req.bytes,
                               [this, h] { lsLand(h); });
}

void
CellSystem::lsPutCross(std::uint32_t h)
{
    Flight &f = flight(h);
    spes_[f.srcSpe]->ls().read(f.srcLsa, f.payload, f.req.bytes);
    unsigned dc = chipOf(f.dstSpe);
    memory_->links().sendData(f.srcChip, dc, f.req.bytes, [this, h, dc] {
        // Destination chip: ride from the IOIF ramp to the target LS.
        const Flight &g = flight(h);
        eibs_[dc]->transfer(eib::ioif0Ramp, rampOf(g.dstSpe), g.req.bytes,
                            [this, h] { lsPutFarLand(h); });
    });
}

void
CellSystem::lsPutFarLand(std::uint32_t h)
{
    Flight &f = flight(h);
    unsigned dc = chipOf(f.dstSpe);
    spe::Spe *dst = spes_[f.dstSpe].get();
    Tick done_at = dst->ls().reservePort(f.req.bytes);
    if (f.req.corrupt)
        f.payload[0] ^= 0xA5;
    dst->ls().write(f.dstLsa, f.payload, f.req.bytes);
    // The completion acknowledgment crosses back to the issuing chip.
    const Tick L = memory_->links().pathLatency(dc, f.srcChip);
    engine_->post(dc, f.srcChip, done_at + L,
                  [this, h] { finishFlight(h); });
}

void
CellSystem::finishFlight(std::uint32_t h)
{
    const spe::LineDone done = flight(h).req.done;
    releaseFlight(h);
    done();
}

/** Read @p bytes at @p ea from wherever it lives: an SPE's LS aperture
 *  or the main-memory backing store. */
void
CellSystem::readEa(EffAddr ea, std::uint8_t *buf, std::uint32_t bytes)
{
    if (!isLsEa(ea)) {
        memory_->store().read(ea, buf, bytes);
        return;
    }
    EffAddr rel = ea - lsEaBase;
    auto idx = static_cast<unsigned>(rel / lsEaStride);
    auto off = static_cast<LsAddr>(rel % lsEaStride);
    if (idx >= spes_.size())
        sim::fatal("verify: EA 0x%llx maps to SPE %u, which does not "
                   "exist", (unsigned long long)ea, idx);
    spes_[idx]->ls().read(off, buf, bytes);
}

void
CellSystem::verifyCompletion(const spe::Mfc::Completion &done)
{
    if (done.fault != spe::MfcError::None) {
        // A dropped or corrupted command is *expected* to diverge; it
        // reported its error status and recovery is the program's job.
        ++verifyStats_.faultedSkipped;
        return;
    }
    auto &ls = spes_[done.speIndex]->ls();
    LsAddr lsa = done.lsa;
    std::vector<std::uint8_t> ls_buf, ea_buf;
    for (std::size_t k = 0; k < done.numSegs; ++k) {
        const auto &seg = done.segs[k];
        if (done.isList)
            lsa = static_cast<LsAddr>(util::roundUp(lsa, 16));
        ls_buf.resize(seg.size);
        ea_buf.resize(seg.size);
        ls.read(lsa, ls_buf.data(), seg.size);
        readEa(seg.ea, ea_buf.data(), seg.size);
        if (ls_buf != ea_buf) {
            std::uint32_t i = 0;
            while (i < seg.size && ls_buf[i] == ea_buf[i])
                ++i;
            ++verifyStats_.divergences;
            if (verifyStats_.firstDivergence.empty()) {
                verifyStats_.firstDivergence = util::format(
                    "tick %llu spe%u tag %u %s%s: LS 0x%x vs EA 0x%llx "
                    "diverge at byte %u of %u (ls=0x%02x ea=0x%02x)",
                    (unsigned long long)now(), done.speIndex, done.tag,
                    done.dir == spe::DmaDir::Get ? "get" : "put",
                    done.isList ? "-list" : "", lsa,
                    (unsigned long long)seg.ea, i, seg.size, ls_buf[i],
                    ea_buf[i]);
            }
        }
        verifyStats_.bytesChecked += seg.size;
        lsa += seg.size;
    }
    ++verifyStats_.transfersChecked;
}

void
CellSystem::snapshotMetrics(stats::MetricsRegistry &reg) const
{
    reg.counter("sim.runs").increment();
    reg.counter("sim.ticks").add(now());
    for (unsigned c = 0; c < eibs_.size(); ++c)
        eibs_[c]->registerMetrics(reg, util::format("eib%u", c));
    memory_->registerMetrics(reg, "mem");
    ppu_->registerMetrics(reg, "ppe");
    for (unsigned s = 0; s < spes_.size(); ++s) {
        spes_[s]->mfc().registerMetrics(
            reg, util::format("spe%u.mfc", s));
    }
    if (cfg_.verify) {
        reg.counter("verify.transfers_checked")
            .add(verifyStats_.transfersChecked);
        reg.counter("verify.bytes_checked").add(verifyStats_.bytesChecked);
        reg.counter("verify.divergences").add(verifyStats_.divergences);
        reg.counter("verify.faulted_skipped")
            .add(verifyStats_.faultedSkipped);
    }
    if (cfg_.simProfile) {
        std::array<sim::EventQueue::TagProfile,
                   sim::EventQueue::kNumTags>
            total{};
        auto fold = [&total](const sim::EventQueue &q) {
            const auto &p = q.tagProfiles();
            for (std::size_t i = 0; i < p.size(); ++i) {
                total[i].events += p[i].events;
                total[i].selfNs += p[i].selfNs;
            }
        };
        for (unsigned p = 0; p < engine_->partitions(); ++p)
            fold(engine_->queue(p));
        for (std::size_t i = 0; i < total.size(); ++i) {
            if (!total[i].events)
                continue;
            auto tag = static_cast<sim::EventTag>(i);
            reg.counter(util::format("profile.%s.events",
                                     sim::toString(tag)))
                .add(total[i].events);
            reg.counter(util::format("profile.%s.self_ns",
                                     sim::toString(tag)))
                .add(total[i].selfNs);
        }
        if (cfg_.numChips > 1) {
            reg.counter("profile.crossings.delivered")
                .add(engine_->messagesDelivered());
        }
    }
}

} // namespace cellbw::cell
