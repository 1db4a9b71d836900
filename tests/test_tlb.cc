/**
 * @file
 * Unit tests for the TLB and the frame map, plus the physical-
 * addressing mode of the System.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <memory>
#include <utility>
#include <vector>

#include "memory/tlb.hh"
#include "sim/system.hh"
#include "util/serialize.hh"

namespace cachetime
{
namespace
{

TlbConfig
smallTlb()
{
    TlbConfig config;
    config.entries = 8;
    config.assoc = 8;
    config.pageWords = 1024;
    config.missPenaltyCycles = 20;
    return config;
}

TEST(Tlb, FirstAccessMissesThenHits)
{
    Tlb tlb(smallTlb());
    auto first = tlb.translate(0x1234, 1);
    EXPECT_FALSE(first.hit);
    auto second = tlb.translate(0x1234, 1);
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(first.paddr, second.paddr);
    EXPECT_EQ(tlb.stats().accesses, 2u);
    EXPECT_EQ(tlb.stats().misses, 1u);
}

TEST(Tlb, SamePageSharesEntry)
{
    Tlb tlb(smallTlb());
    tlb.translate(0, 1);
    EXPECT_TRUE(tlb.translate(1023, 1).hit);  // same page
    EXPECT_FALSE(tlb.translate(1024, 1).hit); // next page
}

TEST(Tlb, OffsetPreservedWithinPage)
{
    Tlb tlb(smallTlb());
    Addr base = tlb.translate(4 * 1024, 1).paddr;
    Addr inner = tlb.translate(4 * 1024 + 77, 1).paddr;
    EXPECT_EQ(inner, base + 77);
}

TEST(Tlb, DistinctPidsTranslateDifferently)
{
    Tlb tlb(smallTlb());
    Addr a = tlb.translate(0x4000, 1).paddr;
    Addr b = tlb.translate(0x4000, 2).paddr;
    EXPECT_NE(a, b);
}

TEST(Tlb, FrameMapIsDeterministic)
{
    Tlb a(smallTlb()), b(smallTlb());
    for (std::uint64_t vpage = 0; vpage < 100; ++vpage)
        EXPECT_EQ(a.frameOf(vpage, 3), b.frameOf(vpage, 3));
}

TEST(Tlb, LruEvictionUnderCapacity)
{
    Tlb tlb(smallTlb()); // 8 fully-associative entries
    for (Addr page = 0; page < 8; ++page)
        tlb.translate(page * 1024, 1);
    // Touch page 0 so it is MRU, then add a ninth page.
    EXPECT_TRUE(tlb.translate(0, 1).hit);
    tlb.translate(8 * 1024, 1);
    // Page 0 survives (MRU); page 1 was evicted (LRU).
    EXPECT_TRUE(tlb.translate(0, 1).hit);
    EXPECT_FALSE(tlb.translate(1 * 1024, 1).hit);
}

TEST(Tlb, FlushDropsEverything)
{
    Tlb tlb(smallTlb());
    tlb.translate(0, 1);
    tlb.flush();
    EXPECT_FALSE(tlb.translate(0, 1).hit);
}

TEST(Tlb, StatsReset)
{
    Tlb tlb(smallTlb());
    tlb.translate(0, 1);
    tlb.resetStats();
    EXPECT_EQ(tlb.stats().accesses, 0u);
    EXPECT_EQ(tlb.stats().misses, 0u);
}

/**
 * The naive reference for translate(): one MRU-first list of
 * (vpage, pid) per set, hits move to the front, misses evict the
 * back of a full list.
 */
class LinearLruModel
{
  public:
    explicit LinearLruModel(const TlbConfig &config)
        : config_(config), sets_(config.entries / config.assoc)
    {
    }

    /** @return whether (vaddr, pid) hits; updates LRU order. */
    bool
    translate(Addr vaddr, Pid pid)
    {
        ++accesses;
        const std::uint64_t vpage = vaddr / config_.pageWords;
        auto &set = sets_[vpage % sets_.size()];
        const std::pair<std::uint64_t, Pid> key(vpage, pid);
        auto it = std::find(set.begin(), set.end(), key);
        if (it != set.end()) {
            set.splice(set.begin(), set, it);
            return true;
        }
        ++misses;
        if (set.size() == config_.assoc)
            set.pop_back();
        set.push_front(key);
        return false;
    }

    void
    flush()
    {
        for (auto &set : sets_)
            set.clear();
    }

    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

  private:
    TlbConfig config_;
    std::vector<std::list<std::pair<std::uint64_t, Pid>>> sets_;
};

TEST(Tlb, MatchesLinearLruModel)
{
    const std::pair<unsigned, unsigned> shapes[] = {
        {1, 1}, {8, 2}, {64, 4}, {64, 64}, {256, 256}};
    const std::uint64_t page_sizes[] = {1, 8, 1024};
    const Pid pids[] = {0, 0xFFFF};

    for (auto [entries, assoc] : shapes) {
        for (std::uint64_t page_words : page_sizes) {
            // Working sets of half and of twice the TLB's reach.
            for (unsigned pages : {entries / 2 + 1, entries * 2}) {
                SCOPED_TRACE(::testing::Message()
                             << entries << "x" << assoc << " page="
                             << page_words << " pages=" << pages);
                TlbConfig config;
                config.entries = entries;
                config.assoc = assoc;
                config.pageWords = page_words;

                // Half the pages sit at the bottom of the address
                // space, half at the top (vpages near 2^64 when a
                // page is one word).
                const std::uint64_t top_vpage = ~Addr{0} / page_words;
                std::vector<std::uint64_t> vpages;
                for (unsigned i = 0; i < pages; ++i)
                    vpages.push_back(i % 2 ? top_vpage - i / 2 : i / 2);

                auto tlb = std::make_unique<Tlb>(config);
                LinearLruModel model(config);
                std::uint64_t x = 12345 + entries + page_words + pages;
                const int steps = 6000;
                for (int step = 0; step < steps; ++step) {
                    if (step == steps / 3) {
                        tlb->flush();
                        model.flush();
                    }
                    if (step == 2 * steps / 3) {
                        StateWriter w;
                        tlb->saveState(w);
                        auto fresh = std::make_unique<Tlb>(config);
                        StateReader r(w.buffer().data(),
                                      w.buffer().size(), "tlb-model");
                        fresh->loadState(r);
                        tlb = std::move(fresh);
                        model.accesses = model.misses = 0;
                    }
                    x = x * 6364136223846793005ULL +
                        1442695040888963407ULL;
                    const std::uint64_t vpage = vpages[(x >> 33) % pages];
                    const Pid pid = pids[(x >> 20) & 1];
                    const Addr offset = (x >> 40) % page_words;
                    const Addr vaddr = vpage * page_words + offset;

                    Tlb::Translation t = tlb->translate(vaddr, pid);
                    ASSERT_EQ(t.hit, model.translate(vaddr, pid))
                        << "step " << step;
                    ASSERT_EQ(t.paddr, tlb->frameOf(vpage, pid) *
                                               page_words +
                                           offset)
                        << "step " << step;
                    ASSERT_EQ(tlb->stats().accesses, model.accesses);
                    ASSERT_EQ(tlb->stats().misses, model.misses);
                }
            }
        }
    }
}

/** One checkpointed TLB entry, written as saveState() lays it out. */
struct SavedEntry
{
    std::uint64_t vpage;
    std::uint64_t pid;
    std::uint64_t frame;
};

/**
 * Load a checkpoint of a 4-entry, 2-way TLB whose ways hold
 * @p saved in order (the rest invalid).
 */
void
loadSavedEntries(const std::vector<SavedEntry> &saved)
{
    TlbConfig config;
    config.entries = 4;
    config.assoc = 2;
    config.physFrames = 16;
    StateWriter w;
    w.u64(10); // seq
    w.u64(config.entries);
    for (unsigned i = 0; i < config.entries; ++i) {
        w.b(i < saved.size());
        if (i >= saved.size())
            continue;
        w.u64(saved[i].vpage);
        w.u64(saved[i].pid);
        w.u64(saved[i].frame);
        w.u64(i + 1); // lastUse
    }
    Tlb tlb(config);
    StateReader r(w.buffer().data(), w.buffer().size(), "tlb-ckpt");
    tlb.loadState(r);
}

TEST(Tlb, LoadStateRejectsWidePid)
{
    EXPECT_EXIT(loadSavedEntries({{0, 0x10000, 3}}),
                ::testing::ExitedWithCode(1), "wider than 16 bits");
}

TEST(Tlb, LoadStateRejectsEntryInWrongSet)
{
    // Ways 0-1 are set 0; vpage 1 maps to set 1.
    EXPECT_EXIT(loadSavedEntries({{1, 1, 3}}),
                ::testing::ExitedWithCode(1), "maps to set 1");
}

TEST(Tlb, LoadStateRejectsDuplicateKey)
{
    EXPECT_EXIT(loadSavedEntries({{2, 1, 3}, {2, 1, 3}}),
                ::testing::ExitedWithCode(1), "in two ways");
}

TEST(Tlb, LoadStateRejectsFrameBeyondMemory)
{
    EXPECT_EXIT(loadSavedEntries({{0, 1, 16}}),
                ::testing::ExitedWithCode(1), "physFrames is 16");
}

TEST(PhysicalMode, TlbMissPenaltyAppears)
{
    SystemConfig config = SystemConfig::paperDefault();
    config.setL1SizeWordsEach(64);
    config.addressing = AddressMode::Physical;
    config.tlb = smallTlb();

    // Two loads to one block: TLB miss + cache miss, then hits.
    Trace trace("t",
                {
                    {0, RefKind::Load, 0},
                    {1, RefKind::Load, 0},
                });
    SimResult r = System(config).run(trace);
    EXPECT_TRUE(r.physical);
    EXPECT_EQ(r.tlb.misses, 1u);
    // Virtual run for comparison: physical pays the 20-cycle walk.
    SystemConfig virt = config;
    virt.addressing = AddressMode::Virtual;
    SimResult rv = System(virt).run(trace);
    EXPECT_EQ(r.cycles, rv.cycles + 20);
}

TEST(PhysicalMode, SharedPhysicalPageHitsAcrossPids)
{
    // In physical mode the pid leaves the tag; two pids mapping to
    // different frames simply occupy different physical blocks, and
    // repeated access by each pid hits.
    SystemConfig config = SystemConfig::paperDefault();
    config.setL1SizeWordsEach(16 * 1024);
    config.addressing = AddressMode::Physical;

    Trace trace("t",
                {
                    {100, RefKind::Load, 1},
                    {100, RefKind::Load, 2},
                    {100, RefKind::Load, 1},
                    {100, RefKind::Load, 2},
                });
    SimResult r = System(config).run(trace);
    EXPECT_EQ(r.dcache.readMisses, 2u); // one cold miss per frame
}

TEST(PhysicalMode, MissesMatchVirtualForSingleProcess)
{
    // With one process and a large TLB, physical placement only
    // permutes page frames; a fully-associative cache is placement-
    // blind, so miss counts match the virtual run.
    Trace trace("t", {}, 0);
    std::uint64_t x = 99;
    for (int i = 0; i < 3000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        trace.push({(x >> 33) % 4096, RefKind::Load, 1});
    }
    SystemConfig config = SystemConfig::paperDefault();
    config.setL1SizeWordsEach(256);
    config.setL1Assoc(64);
    config.tlb.entries = 1024;
    config.tlb.assoc = 1024;
    config.icache.replPolicy = ReplPolicy::LRU;
    config.dcache.replPolicy = ReplPolicy::LRU;

    SystemConfig phys = config;
    phys.addressing = AddressMode::Physical;
    SimResult rv = System(config).run(trace);
    SimResult rp = System(phys).run(trace);
    EXPECT_EQ(rp.dcache.readMisses, rv.dcache.readMisses);
}

} // namespace
} // namespace cachetime
