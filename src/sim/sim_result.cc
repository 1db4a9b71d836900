#include "sim/sim_result.hh"

#include <string_view>

#include "stats/fields.hh"
#include "stats/stats.hh"
#include "util/logging.hh"

namespace cachetime
{

namespace
{

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

} // namespace

const CacheStats &
SimResult::l2() const
{
    static const CacheStats empty;
    return midLevels.empty() ? empty : midLevels.front();
}

const WriteBufferStats &
SimResult::l2Buffer() const
{
    static const WriteBufferStats empty;
    return midBuffers.empty() ? empty : midBuffers.front();
}

void
SimResult::mergeCounters(const SimResult &other)
{
    stats::mergeFields(*this, other);
    icache.merge(other.icache);
    dcache.merge(other.dcache);
    auto mergeVec = [](auto &into, const auto &from,
                       const char *what) {
        if (from.empty())
            return;
        if (into.size() != from.size())
            panic("SimResult::mergeCounters: %s size mismatch "
                  "(%zu vs %zu)",
                  what, into.size(), from.size());
        for (std::size_t i = 0; i < into.size(); ++i)
            into[i].merge(from[i]);
    };
    mergeVec(midLevels, other.midLevels, "midLevels");
    mergeVec(midBuffers, other.midBuffers, "midBuffers");
    l1Buffer.merge(other.l1Buffer);
    memory.merge(other.memory);
    tlb.merge(other.tlb);
    mergeVec(coreIcache, other.coreIcache, "coreIcache");
    mergeVec(coreDcache, other.coreDcache, "coreDcache");
    coherenceStats.merge(other.coherenceStats);
    missClasses.merge(other.missClasses);
}

double
SimResult::cyclesPerRef() const
{
    return ratio(static_cast<double>(cycles),
                 static_cast<double>(refs));
}

double
SimResult::execNsPerRef() const
{
    return cyclesPerRef() * cycleNs;
}

double
SimResult::totalExecNs() const
{
    return static_cast<double>(cycles) * cycleNs;
}

double
SimResult::readMissRatio() const
{
    double misses = static_cast<double>(icache.readMisses) +
                    static_cast<double>(dcache.readMisses);
    double reads = static_cast<double>(icache.readAccesses) +
                   static_cast<double>(dcache.readAccesses);
    return ratio(misses, reads);
}

double
SimResult::ifetchMissRatio() const
{
    return icache.readMissRatio();
}

double
SimResult::loadMissRatio() const
{
    return dcache.readMissRatio();
}

double
SimResult::readTrafficRatio() const
{
    double words = static_cast<double>(icache.wordsFetched) +
                   static_cast<double>(dcache.wordsFetched);
    double reads = static_cast<double>(icache.readAccesses) +
                   static_cast<double>(dcache.readAccesses);
    return ratio(words, reads);
}

double
SimResult::writeTrafficBlockRatio(unsigned blockWords) const
{
    double blocks = static_cast<double>(icache.dirtyBlocksReplaced) +
                    static_cast<double>(dcache.dirtyBlocksReplaced);
    double through =
        static_cast<double>(icache.wordsWrittenThrough) +
        static_cast<double>(dcache.wordsWrittenThrough);
    return ratio(blocks * blockWords + through,
                 static_cast<double>(refs));
}

double
SimResult::writeTrafficWordRatio() const
{
    double words = static_cast<double>(icache.dirtyWordsReplaced) +
                   static_cast<double>(dcache.dirtyWordsReplaced);
    double through =
        static_cast<double>(icache.wordsWrittenThrough) +
        static_cast<double>(dcache.wordsWrittenThrough);
    return ratio(words + through, static_cast<double>(refs));
}

void
SimResult::regStats(stats::Registry &registry,
                    const std::string &root) const
{
    auto name = [&](const char *leaf) { return root + "." + leaf; };

    registry.addValue(name("cycleNs"), "CPU cycle time in ns",
                      [this] { return cycleNs; });
    auto derived = [&] {
        registry.addFormula(name("cyclesPerRef"),
                            "total cycles / total references",
                            [this] { return cyclesPerRef(); });
        registry.addFormula(name("execNsPerRef"),
                            "execution time per reference, ns",
                            [this] { return execNsPerRef(); });
        registry.addFormula(name("totalExecNs"),
                            "total execution time, ns",
                            [this] { return totalExecNs(); });
        registry.addFormula(name("readMissRatio"),
                            "combined L1 read miss ratio",
                            [this] { return readMissRatio(); });
        registry.addFormula(name("readTrafficRatio"),
                            "words fetched below L1 per read",
                            [this] { return readTrafficRatio(); });
        registry.addFormula(name("writeTrafficWordRatio"),
                            "dirty words + write-throughs per reference",
                            [this] { return writeTrafficWordRatio(); });
    };
    // The derived metrics follow the cycle count in the dump.
    forEachField([&](const char *leaf, const char *desc, auto member) {
        stats::regField(registry, name(leaf), desc, this->*member);
        if (std::string_view(leaf) == "cycles")
            derived();
    });

    icache.regStats(registry, root + ".l1i");
    dcache.regStats(registry, root + ".l1d");
    l1Buffer.regStats(registry, root + ".l1wbuf");
    for (std::size_t i = 0; i < midLevels.size(); ++i) {
        std::string level = "l";
        level.append(std::to_string(i + 2));
        midLevels[i].regStats(registry, root + "." + level);
        if (i < midBuffers.size())
            midBuffers[i].regStats(registry,
                                   root + "." + level + "wbuf");
    }
    memory.regStats(registry, root + ".mem");
    if (physical)
        tlb.regStats(registry, root + ".tlb");

    if (coherent) {
        registry.addScalar(name("cores"), "simulated cores",
                           [this] { return cores; });
        stats::regFields(registry, root + ".coh", coherenceStats);
        stats::regFields(registry, root + ".missclass", missClasses);

        for (std::size_t c = 0; c < coreDcache.size(); ++c) {
            std::string core = root;
            core.append(".core").append(std::to_string(c));
            if (c < coreIcache.size())
                coreIcache[c].regStats(registry, core + ".l1i");
            coreDcache[c].regStats(registry, core + ".l1d");
        }
    }
}

} // namespace cachetime
