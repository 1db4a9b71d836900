#include "verify/diff.hh"

#include <algorithm>
#include <sstream>

namespace cachetime
{
namespace verify
{
namespace
{

struct Differ
{
    std::vector<FieldDiff> diffs;

    template <typename T>
    void
    field(const std::string &name, const T &lhs, const T &rhs)
    {
        if (lhs == rhs)
            return;
        std::ostringstream l, r;
        l << lhs;
        r << rhs;
        diffs.push_back({name, l.str(), r.str()});
    }

    void
    field(const std::string &name, const Histogram &lhs,
          const Histogram &rhs)
    {
        field(name + ".count", lhs.count(), rhs.count());
        field(name + ".sum", lhs.sum(), rhs.sum());
        field(name + ".overflow", lhs.overflow(), rhs.overflow());
        field(name + ".max", lhs.max(), rhs.max());
        std::size_t bins = std::min(lhs.bins(), rhs.bins());
        field(name + ".bins", lhs.bins(), rhs.bins());
        for (std::size_t i = 0; i < bins; ++i) {
            field(name + ".bin" + std::to_string(i), lhs.bin(i),
                  rhs.bin(i));
        }
    }

    /** Compare every entry of a counter struct's field list. */
    template <typename S>
    void
    fields(const std::string &name, const S &lhs, const S &rhs)
    {
        S::forEachField([&](const char *leaf, const char *,
                            auto member) {
            field(name + "." + leaf, lhs.*member, rhs.*member);
        });
    }

    /** Compare two groups' sizes, then each element both have. */
    template <typename S, typename Name>
    void
    each(const std::string &what, const std::vector<S> &lhs,
         const std::vector<S> &rhs, Name &&name)
    {
        field(what + ".size", lhs.size(), rhs.size());
        for (std::size_t i = 0; i < std::min(lhs.size(), rhs.size());
             ++i)
            fields(name(i), lhs[i], rhs[i]);
    }
};

} // namespace

std::vector<FieldDiff>
diffResults(const SimResult &a, const SimResult &b)
{
    Differ d;
    SimResult::forEachField([&](const char *leaf, const char *,
                                auto member) {
        d.field(leaf, a.*member, b.*member);
    });

    d.fields("icache", a.icache, b.icache);
    d.fields("dcache", a.dcache, b.dcache);

    auto level = [](std::size_t i) {
        std::string name = "L";
        return name.append(std::to_string(i + 2));
    };
    d.each("midLevels", a.midLevels, b.midLevels, level);
    d.each("midBuffers", a.midBuffers, b.midBuffers,
           [&](std::size_t i) { return level(i) + "wbuf"; });

    d.fields("l1wbuf", a.l1Buffer, b.l1Buffer);
    d.fields("mem", a.memory, b.memory);

    d.field("physical", a.physical, b.physical);
    d.fields("tlb", a.tlb, b.tlb);

    d.field("cores", a.cores, b.cores);
    d.field("coherent", a.coherent, b.coherent);
    auto core = [](std::size_t i) {
        return "core" + std::to_string(i);
    };
    d.each("coreIcache", a.coreIcache, b.coreIcache,
           [&](std::size_t i) { return core(i) + ".l1i"; });
    d.each("coreDcache", a.coreDcache, b.coreDcache,
           [&](std::size_t i) { return core(i) + ".l1d"; });

    d.fields("coh", a.coherenceStats, b.coherenceStats);
    d.fields("missclass", a.missClasses, b.missClasses);
    return d.diffs;
}

std::string
formatDiffs(const std::vector<FieldDiff> &diffs)
{
    std::ostringstream out;
    for (const FieldDiff &diff : diffs) {
        out << "  " << diff.field << ": fast=" << diff.lhs
            << " oracle=" << diff.rhs << "\n";
    }
    return out.str();
}

} // namespace verify
} // namespace cachetime
