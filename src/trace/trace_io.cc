#include "trace/trace_io.hh"

#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "trace/ref_source.hh"
#include "trace/trace_v2.hh"
#include "util/logging.hh"

namespace cachetime
{

namespace
{

RefKind
kindFromChar(char c)
{
    switch (c) {
      case 'I':
      case 'i':
        return RefKind::IFetch;
      case 'L':
      case 'l':
        return RefKind::Load;
      case 'S':
      case 's':
        return RefKind::Store;
      default:
        fatal("trace_io: unknown reference kind '%c'", c);
    }
}

} // namespace

void
writeText(const Trace &trace, std::ostream &os)
{
    os << "# cachetime text trace: " << trace.name() << '\n';
    os << "#warmstart " << trace.warmStart() << '\n';
    for (const Ref &ref : trace.refs()) {
        os << refKindName(ref.kind) << ' ' << std::hex << ref.addr
           << std::dec << ' ' << ref.pid << '\n';
    }
}

Trace
readText(std::istream &is, const std::string &name)
{
    std::vector<Ref> refs;
    std::size_t warm_start = 0;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty())
            continue;
        if (line[0] == '#') {
            std::istringstream ss(line);
            std::string directive;
            ss >> directive;
            if (directive == "#warmstart")
                ss >> warm_start;
            continue;
        }
        std::istringstream ss(line);
        std::string kind;
        std::uint64_t addr;
        ss >> kind >> std::hex >> addr >> std::dec;
        if (kind.empty() || ss.fail())
            fatal("trace_io: malformed trace line %zu: '%s'", lineno,
                  line.c_str());
        // The pid column is optional (the classic din dialect has
        // none); only a present-but-unparseable pid is malformed.
        std::uint64_t pid = 0;
        ss >> std::ws;
        if (!ss.eof() && !(ss >> pid))
            fatal("trace_io: malformed pid on trace line %zu: '%s'",
                  lineno, line.c_str());
        // The fused probe key reserves exactly 16 bits for the pid,
        // so a wider pid would silently alias another process.
        if (pid > std::numeric_limits<Pid>::max())
            fatal("trace_io: pid %llu on trace line %zu exceeds the "
                  "16-bit pid limit",
                  static_cast<unsigned long long>(pid), lineno);
        refs.push_back({addr, kindFromChar(kind[0]),
                        static_cast<Pid>(pid)});
    }
    if (warm_start > refs.size())
        fatal("trace_io: #warmstart %zu beyond the %zu references "
              "in the trace",
              warm_start, refs.size());
    return Trace(name, std::move(refs), warm_start);
}

Trace
readDinero(std::istream &is, const std::string &name)
{
    std::vector<Ref> refs;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ss(line);
        unsigned label;
        std::uint64_t byte_addr;
        ss >> label >> std::hex >> byte_addr >> std::dec;
        if (ss.fail())
            fatal("trace_io: malformed din line %zu: '%s'", lineno,
                  line.c_str());
        RefKind kind;
        switch (label) {
          case 0:
            kind = RefKind::Load;
            break;
          case 1:
            kind = RefKind::Store;
            break;
          case 2:
            kind = RefKind::IFetch;
            break;
          default:
            continue; // dineroIV ignores other labels
        }
        refs.push_back({byte_addr / wordBytes, kind, 0});
    }
    return Trace(name, std::move(refs), 0);
}

void
writeDinero(const Trace &trace, std::ostream &os, bool strict_pids)
{
    bool multi_pid = false;
    if (!trace.refs().empty()) {
        Pid first = trace.refs().front().pid;
        for (const Ref &ref : trace.refs()) {
            if (ref.pid != first) {
                multi_pid = true;
                break;
            }
        }
    }
    if (multi_pid) {
        if (strict_pids)
            fatal("trace_io: trace '%s' has more than one pid; the "
                  "din format is uniprocess and cannot represent it",
                  trace.name().c_str());
        warn("trace_io: trace '%s' has more than one pid; the din "
             "format is uniprocess, so pids are dropped and the "
             "trace will not round-trip",
             trace.name().c_str());
    }
    for (const Ref &ref : trace.refs()) {
        unsigned label = 0;
        switch (ref.kind) {
          case RefKind::Load:
            label = 0;
            break;
          case RefKind::Store:
            label = 1;
            break;
          case RefKind::IFetch:
            label = 2;
            break;
        }
        os << label << ' ' << std::hex << ref.addr * wordBytes
           << std::dec << '\n';
    }
}

namespace
{

bool
hasSuffix(const std::string &text, const char *suffix)
{
    std::string s(suffix);
    return text.size() >= s.size() &&
           text.compare(text.size() - s.size(), s.size(), s) == 0;
}

} // namespace

std::string
workloadNameFromPath(const std::string &path)
{
    std::string name = path;
    if (auto slash = name.find_last_of('/'); slash != std::string::npos)
        name = name.substr(slash + 1);
    if (auto dot = name.find_last_of('.'); dot != std::string::npos)
        name = name.substr(0, dot);
    return name;
}

Trace
loadFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        fatal("trace_io: cannot open '%s'", path.c_str());
    char magic[sizeof(v2::magic)];
    is.read(magic, sizeof(magic));
    bool v2 = is &&
        std::memcmp(magic, v2::magic, sizeof(v2::magic)) == 0;
    // Any other CTTRACE version (the retired CTTRACE1, say) would
    // otherwise reach the text parser and be reported as a
    // malformed line of binary junk.
    if (is && !v2 &&
        std::memcmp(magic, v2::magic, sizeof(v2::magic) - 1) == 0)
        fatal("trace_io: '%s' is a %.8s trace; only CTTRACE2 binary "
              "traces are read",
              path.c_str(), magic);
    if (v2) {
        is.close();
        return readV2(path);
    }
    is.clear();
    is.seekg(0);
    std::string name = workloadNameFromPath(path);
    if (hasSuffix(path, ".din"))
        return readDinero(is, name);
    return readText(is, name);
}

std::unique_ptr<RefSource>
openRefSource(const std::string &path)
{
    if (isV2File(path))
        return std::make_unique<V2FileSource>(path);
    return TraceRefSource::owning(loadFile(path));
}

void
saveFile(const Trace &trace, const std::string &path)
{
    bool din = hasSuffix(path, ".din");
    if (!din && !hasSuffix(path, ".txt")) {
        writeV2(trace, path);
        return;
    }
    std::ofstream os(path, std::ios::binary);
    if (!os)
        fatal("trace_io: cannot create '%s'", path.c_str());
    if (din)
        writeDinero(trace, os);
    else
        writeText(trace, os);
    if (!os)
        fatal("trace_io: write to '%s' failed", path.c_str());
}

} // namespace cachetime
