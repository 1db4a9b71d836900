/**
 * @file
 * cachetime's performance benchmark: host time of the simulator on
 * three workloads, end to end and per layer, with every pass checked
 * bit for bit against an independent reference.
 *
 * Workloads (README.md in this directory says why each was chosen):
 *  - missratio_grid: the Fig 3-1 size axis x the Fig 5-1 block axis
 *    (66 direct-mapped points) as one miss-ratio-only query through
 *    runMissRatioMany - the stack kernel and the pool;
 *  - timing_grid: the Fig 3-2/3-3 size axis x four cycle times
 *    (44 points) as one full-timing query through runGeoMeanMany -
 *    the fused batch and the timing engine;
 *  - design_stream: one Section 6 design (512KB L2, 64-entry TLB)
 *    replayed serially with System::run from CTTRACE2 files.
 *
 * The load is a closed loop: each pass starts when the previous one
 * has finished.  The Table 1 traces are generated from the workload
 * seed, which is mixed into every WorkloadSpec::seed.
 *
 * Without --trace the program times passes for --seconds and prints
 * the end-to-end metrics.  With --trace it prints the per-layer
 * metrics instead: a quarter of the time runs untraced passes, a
 * quarter runs passes inside a trace_event session, and then
 * standalone legs time calls into each module's public functions,
 * each wrapped in a trace_event::Span named "<layer>:<leg>", so
 * per-layer self time can be read back from the session file
 * (run.py does that).
 *
 * Output: a `{"report": ...}` line with the host fingerprint and the
 * per-pass samples, then the result line
 * `{"correct", "attempted", "failed", "metrics"}`.  The exit status
 * is nonzero when any checked output differs from its reference.
 */

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache.hh"
#include "core/experiment.hh"
#include "core/sim_cache.hh"
#include "core/stack_sim.hh"
#include "core/sweep.hh"
#include "sim/system.hh"
#include "stats/trace_event.hh"
#include "trace/ref_source.hh"
#include "trace/trace_v2.hh"
#include "trace/workloads.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "verify/diff.hh"
#include "verify/oracle.hh"

using namespace cachetime;

namespace
{

using Clock = std::chrono::steady_clock;
using trace_event::Cat;
using trace_event::Span;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Median of @p v (by value: sorts a copy); 0 for an empty sample. */
double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------
// Command line
// ---------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Multiplies every workload's trace scale (the self-test
     * shrinks the traces with it). */
    double scaleMult = 1.0;
    std::string tmpDir;   ///< CTTRACE2 files go here
    std::string traceOut; ///< trace_event session file (--trace 1)
    std::string configDir = "configs";
    std::string commit = "unknown";
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            fatal("perfbench: %s needs a value", arg.c_str());
        const std::string value = argv[++i];
        if (arg == "--workload")
            args.workload = value;
        else if (arg == "--seed")
            args.seed = std::stoull(value);
        else if (arg == "--seconds")
            args.seconds = std::stod(value);
        else if (arg == "--trace")
            args.trace = value == "1";
        else if (arg == "--scale-mult")
            args.scaleMult = std::stod(value);
        else if (arg == "--tmp-dir")
            args.tmpDir = value;
        else if (arg == "--trace-out")
            args.traceOut = value;
        else if (arg == "--config-dir")
            args.configDir = value;
        else if (arg == "--commit")
            args.commit = value;
        else
            fatal("perfbench: unknown argument %s", arg.c_str());
    }
    if (args.tmpDir.empty())
        fatal("perfbench: --tmp-dir is required");
    if (args.trace && args.traceOut.empty())
        fatal("perfbench: --trace 1 needs --trace-out");
    if (!(args.seconds > 0.0) || !(args.scaleMult > 0.0))
        fatal("perfbench: --seconds and --scale-mult must be positive");
    return args;
}

// ---------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------

/** Shortest round-trip rendering, so every measured digit survives. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        fatal("perfbench: non-finite metric value");
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            c = ' ';
        out += c;
    }
    return out + "\"";
}

std::string
numList(const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        out += (i ? ", " : "") + num(v[i]);
    return out + "]";
}

/** Metrics in print order, each with its unit. */
class MetricSet
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        entries_.push_back({name, value, unit});
    }

    std::string
    json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            const Entry &e = entries_[i];
            out += (i ? ", " : "") + quote(e.name) + ": {\"value\": " +
                   num(e.value) + ", \"unit\": " + quote(e.unit) + "}";
        }
        return out + "}";
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

// ---------------------------------------------------------------
// Host fingerprint
// ---------------------------------------------------------------

std::string
firstLineOf(const std::string &path, const std::string &prefix = "")
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(prefix, 0) != 0)
            continue;
        if (!prefix.empty()) {
            std::size_t colon = line.find(':');
            line = colon == std::string::npos ? line
                                              : line.substr(colon + 1);
            line.erase(0, line.find_first_not_of(" \t"));
        }
        return line;
    }
    return "unavailable";
}

std::string
fingerprintJson(const Args &args, double scale)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    const int affinity =
        sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
    std::ostringstream out;
    out << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
        << ", \"affinity_cpus\": " << affinity
        << ", \"cpu_model\": "
        << quote(firstLineOf("/proc/cpuinfo", "model name"))
        << ", \"cgroup_cpu_max\": "
        << quote(firstLineOf("/sys/fs/cgroup/cpu.max"))
        << ", \"pool_threads\": " << parallelThreads()
        << ", \"build_type\": " << quote(PERFBENCH_BUILD_TYPE)
        << ", \"compiler\": " << quote(PERFBENCH_COMPILER)
        << ", \"commit\": " << quote(args.commit)
        << ", \"seed\": " << args.seed
        << ", \"trace_scale\": " << num(scale) << "}";
    return out.str();
}

// ---------------------------------------------------------------
// Serial loops
// ---------------------------------------------------------------

/**
 * Run fn(i) for i in [0, n) on the calling thread, item i pinned to
 * the (i mod k)-th of the k CPUs the process may use; the thread's
 * affinity is restored afterwards.  Virtual CPUs of a shared host
 * differ in speed (up to ~40% measured between the four CPUs of the
 * reference host), so a serial pass left to the scheduler would be
 * timed on whichever CPU it landed on.  Spreading it evenly makes
 * its time a steady mix of all of them, as a pooled pass already is.
 */
void
serialOverCpus(std::size_t n, const std::function<void(std::size_t)> &fn)
{
    cpu_set_t saved;
    CPU_ZERO(&saved);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof saved, &saved) == 0)
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &saved))
                cpus.push_back(cpu);
    struct Restore
    {
        const cpu_set_t &set;
        bool pinned;
        ~Restore()
        {
            if (pinned)
                sched_setaffinity(0, sizeof set, &set);
        }
    } restore{saved, !cpus.empty()};
    for (std::size_t i = 0; i < n; ++i) {
        if (!cpus.empty()) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpus[i % cpus.size()], &one);
            sched_setaffinity(0, sizeof one, &one);
        }
        fn(i);
    }
}

// ---------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------

enum class Kind
{
    MissRatioGrid,
    TimingGrid,
    DesignStream
};

struct WorkloadDef
{
    const char *name;
    Kind kind;
    double scale; ///< Table 1 trace scale (1.0 = 12.9M refs)
};

constexpr WorkloadDef kWorkloads[] = {
    {"missratio_grid", Kind::MissRatioGrid, 1.0},
    {"timing_grid", Kind::TimingGrid, 0.5},
    {"design_stream", Kind::DesignStream, 1.0},
};

/** Fig 3-1 per-cache size axis: 2KB .. 2MB each, in words. */
std::vector<std::uint64_t>
sizeAxisWordsEach()
{
    std::vector<std::uint64_t> sizes;
    for (unsigned k = 1; k <= 11; ++k)
        sizes.push_back((std::uint64_t{1} << k) * 1024 / 4);
    return sizes;
}

constexpr unsigned kBlockAxis[] = {1, 2, 4, 8, 16, 32};
constexpr double kCycleAxis[] = {20.0, 40.0, 60.0, 80.0};

/** 11 sizes x 6 block sizes, direct-mapped, size-major. */
std::vector<SystemConfig>
missRatioLattice()
{
    std::vector<SystemConfig> configs;
    for (std::uint64_t words : sizeAxisWordsEach())
        for (unsigned block : kBlockAxis) {
            SystemConfig config = SystemConfig::paperDefault();
            config.setL1SizeWordsEach(words);
            config.setL1BlockWords(block);
            configs.push_back(config);
        }
    return configs;
}

/** 11 sizes x 4 cycle times, size-major. */
std::vector<SystemConfig>
timingLattice()
{
    std::vector<SystemConfig> configs;
    for (std::uint64_t words : sizeAxisWordsEach())
        for (double cycle : kCycleAxis) {
            SystemConfig config = SystemConfig::paperDefault();
            config.setL1SizeWordsEach(words);
            config.cycleNs = cycle;
            configs.push_back(config);
        }
    return configs;
}

/**
 * The grid points checked against per-config simulateOne: one per
 * size, walking the second axis diagonally, so every size and every
 * block size (or cycle time) is covered by 11 points.
 */
std::vector<std::size_t>
referenceSubset(std::size_t second_axis)
{
    std::vector<std::size_t> subset;
    for (std::size_t s = 0; s < sizeAxisWordsEach().size(); ++s)
        subset.push_back(s * second_axis + s % second_axis);
    return subset;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("perfbench: cannot read %s", path.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** paperDefault + two_level.vary + physical.vary (Section 6). */
SystemConfig
streamDesign(const std::string &config_dir)
{
    SystemConfig config = SystemConfig::paperDefault();
    applyKeyValues(config, slurp(config_dir + "/two_level.vary"));
    applyKeyValues(config, slurp(config_dir + "/physical.vary"));
    config.validate();
    return config;
}

// ---------------------------------------------------------------
// Inputs: seeded Table 1 traces and their CTTRACE2 files
// ---------------------------------------------------------------

struct Inputs
{
    std::vector<Trace> traces;
    std::vector<std::string> files;
    std::uint64_t refs = 0;
    /** Order-sensitive digest of every reference, for the decoder. */
    std::uint64_t digest = 0;
};

std::uint64_t
foldRefs(std::uint64_t h, const Ref *refs, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        h = (h ^ (refs[i].addr * 4 + static_cast<unsigned>(refs[i].kind)) ^
             (std::uint64_t{refs[i].pid} << 48)) *
            0x100000001b3ULL;
    return h;
}

struct SetupTiming
{
    double genSeconds = 0.0;
    double writeSeconds = 0.0;
};

/**
 * Generate the eight Table 1 traces with @p seed mixed into every
 * spec's seed (one pool task per trace, as generateTable1 does) and
 * write each to a CTTRACE2 file under @p dir.
 */
Inputs
setUp(std::uint64_t seed, double scale, const std::string &dir,
      SetupTiming &timing)
{
    Inputs in;
    std::vector<WorkloadSpec> specs = table1Workloads();
    for (WorkloadSpec &spec : specs)
        spec.seed = mix64(spec.seed ^ mix64(seed));

    Clock::time_point start = Clock::now();
    in.traces = parallelMap<Trace>(specs.size(), [&](std::size_t i) {
        return generate(specs[i], scale);
    });
    timing.genSeconds = secondsSince(start);

    start = Clock::now();
    for (std::size_t i = 0; i < in.traces.size(); ++i) {
        in.files.push_back(dir + "/trace" + std::to_string(i) + ".cttrace2");
        writeV2(in.traces[i], in.files.back());
    }
    timing.writeSeconds = secondsSince(start);

    for (const Trace &trace : in.traces) {
        in.refs += trace.size();
        in.digest = foldRefs(in.digest, trace.refs().data(), trace.size());
    }
    return in;
}

// ---------------------------------------------------------------
// Reference comparison
// ---------------------------------------------------------------

/** Bit-for-bit equality of two all-double metric structs. */
template <typename Metrics>
bool
sameBits(const Metrics &a, const Metrics &b)
{
    static_assert(sizeof(Metrics) % sizeof(double) == 0);
    return std::memcmp(&a, &b, sizeof(Metrics)) == 0;
}

bool
sameResult(const SimResult &a, const SimResult &b)
{
    return verify::diffResults(a, b).empty();
}

/** (config, trace) results by simulateOne, in parallel; row-major. */
std::vector<std::vector<SimResult>>
simulateEach(const std::vector<SystemConfig> &configs,
             const std::vector<Trace> &traces)
{
    const std::size_t T = traces.size();
    std::vector<SimResult> flat = parallelMap<SimResult>(
        configs.size() * T, [&](std::size_t k) {
            return simulateOne(configs[k / T], traces[k % T]);
        });
    std::vector<std::vector<SimResult>> out(configs.size());
    for (std::size_t k = 0; k < flat.size(); ++k)
        out[k / T].push_back(std::move(flat[k]));
    return out;
}

AggregateMetrics
aggregate(const SystemConfig &config, const std::vector<SimResult> &rs)
{
    std::vector<std::shared_ptr<const SimResult>> ptrs;
    for (const SimResult &r : rs)
        ptrs.push_back(std::make_shared<const SimResult>(r));
    return aggregateResults(config, ptrs);
}

/** The simulated-time counts that describe a workload's shape. */
struct SimCounts
{
    std::uint64_t l1ReadMisses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t wbEnqueued = 0;
    std::uint64_t wbFullStallCycles = 0;
    std::uint64_t memBusyCycles = 0;
    std::uint64_t cycles = 0;
    std::uint64_t refs = 0;

    void
    add(const SimResult &r)
    {
        l1ReadMisses += r.icache.readMisses + r.dcache.readMisses;
        for (const CacheStats &mid : r.midLevels)
            l2Accesses += mid.readAccesses + mid.writeAccesses;
        tlbMisses += r.tlb.misses;
        wbEnqueued += r.l1Buffer.enqueued;
        wbFullStallCycles += r.l1Buffer.fullStallCycles;
        for (const WriteBufferStats &wb : r.midBuffers) {
            wbEnqueued += wb.enqueued;
            wbFullStallCycles += wb.fullStallCycles;
        }
        memBusyCycles += r.memory.busyCycles;
        cycles += r.cycles;
        refs += r.refs;
    }
};

// ---------------------------------------------------------------
// The workload passes
// ---------------------------------------------------------------

/**
 * One workload: a pass, its check against the reference, and the
 * figures needed to turn pass times into throughput.
 */
struct Workload
{
    std::function<void()> pass;
    /** @return true when the last pass matched the reference. */
    std::function<bool()> check;
    std::size_t points = 0;       ///< configs answered per pass
    std::uint64_t refsPerPass = 0;///< Σ trace refs over (config, trace)
    std::vector<SystemConfig> configs;
    SimCounts counts;             ///< from the reference results
    std::string reference;        ///< what the reference is
};

/** State shared by the workload closures; outlives the Workload. */
struct WorkloadState
{
    std::vector<MissRatioMetrics> ratios, firstRatios;
    std::vector<MissRatioMetrics> refRatios;
    std::vector<AggregateMetrics> aggs, firstAggs;
    std::vector<AggregateMetrics> refAggs;
    std::vector<SimResult> results, refResults;
    std::vector<std::size_t> subset;
};

/** Compare grid output against the subset reference and pass one. */
template <typename Metrics>
bool
checkGrid(const std::vector<Metrics> &out, std::vector<Metrics> &first,
          const std::vector<Metrics> &ref,
          const std::vector<std::size_t> &subset, std::size_t points)
{
    if (out.size() != points)
        return false;
    bool ok = true;
    for (std::size_t j = 0; j < subset.size(); ++j)
        ok = ok && sameBits(out[subset[j]], ref[j]);
    if (first.empty())
        first = out;
    for (std::size_t i = 0; i < points; ++i)
        ok = ok && sameBits(out[i], first[i]);
    return ok;
}

Workload
makeWorkload(Kind kind, const Inputs &in, const SystemConfig &design,
             WorkloadState &st)
{
    Workload w;
    switch (kind) {
    case Kind::MissRatioGrid: {
        w.configs = missRatioLattice();
        st.subset = referenceSubset(std::size(kBlockAxis));
        std::vector<SystemConfig> ref_configs;
        for (std::size_t i : st.subset)
            ref_configs.push_back(w.configs[i]);
        auto ref = simulateEach(ref_configs, in.traces);
        for (std::size_t j = 0; j < ref.size(); ++j) {
            AggregateMetrics a = aggregate(ref_configs[j], ref[j]);
            st.refRatios.push_back({a.readMissRatio, a.ifetchMissRatio,
                                    a.loadMissRatio, a.writeMissRatio});
            for (const SimResult &r : ref[j])
                w.counts.add(r);
        }
        w.reference = "simulateOne per (config, trace) on 11 of 66 "
                      "points (one per size, block size diagonal); "
                      "all 66 points against the first pass";
        w.pass = [&st, &in, configs = w.configs] {
            st.ratios = runMissRatioMany(configs, in.traces);
        };
        w.check = [&st, n = w.configs.size()] {
            return checkGrid(st.ratios, st.firstRatios, st.refRatios,
                             st.subset, n);
        };
        break;
    }
    case Kind::TimingGrid: {
        w.configs = timingLattice();
        st.subset = referenceSubset(std::size(kCycleAxis));
        std::vector<SystemConfig> ref_configs;
        for (std::size_t i : st.subset)
            ref_configs.push_back(w.configs[i]);
        auto ref = simulateEach(ref_configs, in.traces);
        for (std::size_t j = 0; j < ref.size(); ++j) {
            st.refAggs.push_back(aggregate(ref_configs[j], ref[j]));
            for (const SimResult &r : ref[j])
                w.counts.add(r);
        }
        w.reference = "simulateOne per (config, trace) on 11 of 44 "
                      "points (one per size, cycle time diagonal); "
                      "all 44 points against the first pass";
        w.pass = [&st, &in, configs = w.configs] {
            st.aggs = runGeoMeanMany(configs, in.traces);
        };
        w.check = [&st, n = w.configs.size()] {
            return checkGrid(st.aggs, st.firstAggs, st.refAggs,
                             st.subset, n);
        };
        break;
    }
    case Kind::DesignStream: {
        w.configs = {design};
        st.refResults = parallelMap<SimResult>(
            in.traces.size(), [&](std::size_t i) {
                return verify::oracleRun(design, in.traces[i]);
            });
        for (const SimResult &r : st.refResults)
            w.counts.add(r);
        w.reference = "verify::oracleRun per trace, every counter";
        w.pass = [&st, &in, design] {
            st.results.assign(in.files.size(), SimResult{});
            serialOverCpus(in.files.size(), [&](std::size_t i) {
                V2FileSource source(in.files[i]);
                System system(design);
                st.results[i] = system.run(source);
            });
        };
        w.check = [&st] {
            if (st.results.size() != st.refResults.size())
                return false;
            for (std::size_t i = 0; i < st.results.size(); ++i)
                if (!sameResult(st.results[i], st.refResults[i]))
                    return false;
            return true;
        };
        break;
    }
    }
    w.points = w.configs.size();
    w.refsPerPass = in.refs * w.points;
    return w;
}

// ---------------------------------------------------------------
// Timed passes
// ---------------------------------------------------------------

struct PassLog
{
    std::vector<double> seconds;
    std::vector<double> workerShare;
    std::vector<double> tasks;
    std::vector<double> serialRuns;
    std::uint64_t simCacheHits = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/**
 * One closed-loop pass: SimCache disabled and emptied first, pool
 * counters sampled around the pass, output checked afterwards
 * (outside the timed interval).
 */
void
timedPass(Workload &w, PassLog &log)
{
    SimCache &sim_cache = SimCache::global();
    {
        Span span(Cat::Phase, "sim_cache:clear");
        sim_cache.setEnabled(false);
        sim_cache.clear();
    }
    const PoolStats before = poolStats();
    const Clock::time_point start = Clock::now();
    {
        Span span(Cat::Phase, "pass");
        w.pass();
    }
    log.seconds.push_back(secondsSince(start));
    const PoolStats after = poolStats();
    log.simCacheHits += sim_cache.hits();

    const double tasks = static_cast<double>(after.tasks - before.tasks);
    log.tasks.push_back(tasks);
    log.serialRuns.push_back(
        static_cast<double>(after.serialRuns - before.serialRuns));
    log.workerShare.push_back(
        tasks > 0 ? static_cast<double>(after.workerTasks -
                                        before.workerTasks) /
                        tasks
                  : 0.0);
    ++log.attempted;
    if (!w.check()) {
        ++log.failed;
        warn("perfbench: pass %zu differs from the reference",
             log.seconds.size());
    }
}

/** The tail is the slowest pass with at least this many beyond it. */
constexpr std::size_t kTailBeyond = 10;

/**
 * Pass until @p seconds have elapsed; with @p need_tail, also until
 * a tail is defined.
 */
void
timedLoop(Workload &w, PassLog &log, double seconds, bool need_tail)
{
    const std::size_t min_passes = need_tail ? kTailBeyond + 1 : 1;
    const Clock::time_point start = Clock::now();
    while (secondsSince(start) < seconds || log.seconds.size() < min_passes)
        timedPass(w, log);
}

struct Tail
{
    double value = 0.0;
    double percentile = 0.0;
    std::size_t rank = 0; ///< 1-based rank in ascending order
};

Tail
tailOf(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    Tail tail;
    const std::size_t r = v.size() > kTailBeyond ? v.size() - kTailBeyond - 1
                                                 : 0;
    tail.value = v[r];
    tail.rank = r + 1;
    tail.percentile = 100.0 * static_cast<double>(r + 1) /
                      static_cast<double>(v.size());
    return tail;
}

// ---------------------------------------------------------------
// Per-layer legs (--trace 1)
// ---------------------------------------------------------------

constexpr int kLegReps = 3;

/**
 * Run @p body kLegReps times, each inside a span named @p span_name,
 * and return the per-rep wall times.
 */
std::vector<double>
leg(const std::string &span_name, const std::function<void()> &body)
{
    std::vector<double> seconds;
    for (int rep = 0; rep < kLegReps; ++rep) {
        const Clock::time_point start = Clock::now();
        {
            Span span(Cat::Phase, span_name);
            body();
        }
        seconds.push_back(secondsSince(start));
    }
    return seconds;
}

struct LayerReport
{
    MetricSet metrics;
    std::vector<double> stackScaling;
    bool ok = true;

    void
    expect(bool cond, const char *what)
    {
        if (!cond) {
            ok = false;
            warn("perfbench: layer check failed: %s", what);
        }
    }
};

double
perSecond(double work, const std::vector<double> &seconds)
{
    return work / median(seconds);
}

void
runLayerLegs(const Inputs &in, const SystemConfig &design,
             const Workload &w, LayerReport &rep)
{
    MetricSet &m = rep.metrics;
    const double refs = static_cast<double>(in.refs);
    const unsigned pool_threads = parallelThreads();

    // trace: CTTRACE2 decode alone (ChunkFeeder over V2FileSource).
    bool decode_ok = true;
    const std::vector<double> decode = leg("trace:decode", [&] {
        std::uint64_t n = 0, h = 0;
        serialOverCpus(in.files.size(), [&](std::size_t i) {
            V2FileSource source(in.files[i]);
            ChunkFeeder feeder(source);
            while (ChunkFeeder::Span span = feeder.next()) {
                n += span.size;
                h = foldRefs(h, span.data, span.size);
            }
        });
        decode_ok = decode_ok && n == in.refs && h == in.digest;
    });
    rep.expect(decode_ok, "decoded CTTRACE2 stream != generated trace");

    // The design_stream pass, for the decode share.
    std::vector<SimResult> stream_results;
    const std::vector<double> stream = leg("sim:run_stream", [&] {
        stream_results.assign(in.files.size(), SimResult{});
        serialOverCpus(in.files.size(), [&](std::size_t i) {
            V2FileSource source(in.files[i]);
            System system(design);
            stream_results[i] = system.run(source);
        });
    });

    // core/stack_sim: the missratio_grid lattice at 1 and N threads.
    const std::vector<SystemConfig> lattice = missRatioLattice();
    auto stack_pass = [&](std::vector<std::vector<SimResult>> &out,
                          bool serial) {
        out.assign(in.traces.size(), {});
        auto one = [&](std::size_t t) {
            TraceRefSource source(in.traces[t]);
            out[t] = runStackSweep(lattice, source);
        };
        if (serial) {
            serialOverCpus(in.traces.size(), one);
        } else {
            for (std::size_t t = 0; t < in.traces.size(); ++t)
                one(t);
        }
    };
    std::vector<std::vector<SimResult>> stack_1t, stack_nt;
    std::vector<double> stack_s_1t, stack_s_nt;
    bool stack_same = true;
    for (int r = 0; r < kLegReps; ++r) {
        setParallelThreads(1);
        Clock::time_point start = Clock::now();
        {
            Span span(Cat::Phase, "stack_sim:pass_1t");
            stack_pass(stack_1t, true);
        }
        stack_s_1t.push_back(secondsSince(start));
        setParallelThreads(pool_threads);
        start = Clock::now();
        {
            Span span(Cat::Phase, "stack_sim:pass_nt");
            stack_pass(stack_nt, false);
        }
        stack_s_nt.push_back(secondsSince(start));
        rep.stackScaling.push_back(stack_s_1t.back() / stack_s_nt.back());
        for (std::size_t t = 0; t < stack_1t.size(); ++t)
            for (std::size_t c = 0; c < lattice.size(); ++c)
                stack_same = stack_same &&
                             sameResult(stack_1t[t][c], stack_nt[t][c]);
    }
    rep.expect(stack_same, "stack kernel differs between thread counts");

    // core/sweep: one fused sub-batch of 8 timing-grid configs.
    const std::vector<SystemConfig> timing = timingLattice();
    std::vector<SystemConfig> batch;
    for (std::size_t size_index : {2u, 5u})
        for (std::size_t c = 0; c < std::size(kCycleAxis); ++c)
            batch.push_back(timing[size_index * std::size(kCycleAxis) + c]);
    const Trace &first = in.traces.front();
    std::vector<SimResult> batch_ref;
    for (const SystemConfig &config : batch)
        batch_ref.push_back(simulateOne(config, first));
    bool batch_ok = true;
    const std::vector<double> batch_s = leg("sweep:batch", [&] {
        TraceRefSource source(first);
        std::vector<SimResult> out = simulateBatch(batch, source);
        for (std::size_t c = 0; c < batch.size(); ++c)
            batch_ok = batch_ok && sameResult(out[c], batch_ref[c]);
    });
    rep.expect(batch_ok, "simulateBatch differs from simulateOne");
    double footprint = 0.0;
    for (const SystemConfig &config : w.configs)
        footprint += static_cast<double>(configFootprintBytes(config));

    // sim: machine construction plus an empty run, every timing-grid
    // point x trace.
    bool build_ok = true;
    const std::vector<double> build = leg("sim:build", [&] {
        const std::size_t T = in.traces.size();
        serialOverCpus(timing.size() * T, [&](std::size_t k) {
            TraceRefSource source(in.traces[k % T]);
            System system(timing[k / T]);
            system.beginRun(source);
            build_ok = build_ok && system.endRun().refs == 0;
        });
    });
    rep.expect(build_ok, "an empty run measured references");

    auto sim_leg = [&](const std::string &name, const SystemConfig &config,
                       std::vector<SimResult> &out) {
        return leg(name, [&] {
            out.assign(in.traces.size(), SimResult{});
            serialOverCpus(in.traces.size(), [&](std::size_t i) {
                System system(config);
                out[i] = system.run(in.traces[i]);
            });
        });
    };
    std::vector<SimResult> paper_results, two_level_results;
    const std::vector<double> paper_s = sim_leg(
        "sim:run_paper_default", SystemConfig::paperDefault(), paper_results);
    const std::vector<double> two_level_s =
        sim_leg("sim:run_two_level", design, two_level_results);

    // cache: the bare probe path, one L1 over one trace.
    std::uint64_t probe_misses = 0;
    bool probe_same = true;
    const std::vector<double> probe = leg("cache:probe", [&] {
        Cache cache(SystemConfig::paperDefault().dcache, "L1D");
        for (const Ref &ref : first.refs())
            cache.access(ref);
        const std::uint64_t misses =
            cache.stats().readMisses + cache.stats().writeMisses;
        probe_same =
            probe_same && (probe_misses == 0 || misses == probe_misses);
        probe_misses = misses;
    });
    rep.expect(probe_same, "cache probe misses differ between reps");

    // verify/oracle: the same-binary reference leg.
    std::vector<SimResult> oracle_results;
    const std::vector<double> oracle = leg("oracle:run", [&] {
        oracle_results.assign(in.traces.size(), SimResult{});
        serialOverCpus(in.traces.size(), [&](std::size_t i) {
            oracle_results[i] = verify::oracleRun(design, in.traces[i]);
        });
    });
    bool design_ok = oracle_results.size() == two_level_results.size() &&
                     stream_results.size() == oracle_results.size();
    for (std::size_t i = 0; design_ok && i < oracle_results.size(); ++i)
        design_ok = sameResult(two_level_results[i], oracle_results[i]) &&
                    sameResult(stream_results[i], oracle_results[i]);
    rep.expect(design_ok, "two-level design differs from the oracle");

    const double two_level_rate = perSecond(refs, two_level_s);
    const double oracle_rate = perSecond(refs, oracle);
    m.add("trace.decode_refs_per_s", perSecond(refs, decode), "refs/s");
    m.add("trace.decode_share", median(decode) / median(stream), "fraction");
    m.add("stack.pass_s_1t", median(stack_s_1t), "s");
    m.add("stack.pass_s_nt", median(stack_s_nt), "s");
    m.add("stack.scaling", median(rep.stackScaling), "x");
    m.add("stack.shard_bits", stackShardBits(lattice), "count");
    m.add("sweep.batch_refs_per_s",
          perSecond(static_cast<double>(batch.size() * first.size()),
                    batch_s),
          "refs/s");
    m.add("sweep.footprint_mb", footprint / (1024.0 * 1024.0), "MB");
    m.add("sim.build_s", median(build), "s");
    m.add("sim.refs_per_s.paper_default", perSecond(refs, paper_s),
          "refs/s");
    m.add("sim.refs_per_s.two_level", two_level_rate, "refs/s");
    m.add("cache.probe_refs_per_s",
          perSecond(static_cast<double>(first.size()), probe), "refs/s");
    m.add("oracle.refs_per_s", oracle_rate, "refs/s");
    m.add("sim.vs_oracle", two_level_rate / oracle_rate, "x");
}

// ---------------------------------------------------------------
// Main
// ---------------------------------------------------------------

/** Deletes the CTTRACE2 files when the run ends, however it ends. */
struct TmpDirGuard
{
    std::string dir;
    ~TmpDirGuard()
    {
        std::error_code ec;
        for (const auto &entry : std::filesystem::directory_iterator(dir, ec))
            if (entry.path().extension() == ".cttrace2")
                std::filesystem::remove(entry.path(), ec);
    }
};

/** @return the bytes malloc has handed out and not yet had back. */
std::uint64_t
heapInUseBytes()
{
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
}

/**
 * Samples the heap in use every 10 ms while alive, so the peak covers
 * the timed passes only.  Resident memory was tried first: glibc
 * keeps freed blocks at the top of a per-thread arena resident even
 * after malloc_trim, and that 6-65 MB of set-up garbage, different in
 * every run, spread design_stream's peak 0.25 across ten runs.
 */
class HeapSampler
{
  public:
    HeapSampler() : thread_([this] { loop(); }) {}
    ~HeapSampler() { stop(); }

    HeapSampler(const HeapSampler &) = delete;
    HeapSampler &operator=(const HeapSampler &) = delete;

    /** Stop sampling; @return the peak heap in use in bytes. */
    std::uint64_t
    stop()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        wake_.notify_one();
        if (thread_.joinable())
            thread_.join();
        return peak_;
    }

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        do {
            peak_ = std::max(peak_, heapInUseBytes());
        } while (!wake_.wait_for(lock, std::chrono::milliseconds(10),
                                 [this] { return stop_; }));
        peak_ = std::max(peak_, heapInUseBytes());
    }

    std::mutex mutex_;
    std::condition_variable wake_;
    bool stop_ = false;
    std::uint64_t peak_ = 0; ///< read by stop() only after the join
    std::thread thread_;     ///< last: starts after the members above
};

std::string
reportJson(const Args &args, const WorkloadDef &def, double scale,
           const Workload &w, const PassLog &log,
           const std::vector<double> &setup_s,
           const std::vector<double> &gen_s, const Tail &tail,
           const PassLog *traced, const LayerReport *layers)
{
    std::ostringstream out;
    out << "{\"report\": {\"workload\": " << quote(def.name)
        << ", \"trace_run\": " << (args.trace ? "true" : "false")
        << ", \"fingerprint\": " << fingerprintJson(args, scale)
        << ", \"load\": \"closed loop, one pass at a time\""
        << ", \"points\": " << w.points
        << ", \"refs_per_pass\": " << w.refsPerPass
        << ", \"reference\": " << quote(w.reference)
        << ", \"setup_s_samples\": " << numList(setup_s)
        << ", \"trace_gen_s_samples\": " << numList(gen_s)
        << ", \"passes\": " << log.seconds.size()
        << ", \"pass_s\": " << numList(log.seconds)
        << ", \"pass_s_tail_rank\": " << tail.rank
        << ", \"pass_s_tail_percentile\": " << num(tail.percentile)
        << ", \"pool_worker_share\": " << numList(log.workerShare)
        << ", \"sim_cache_hits\": " << log.simCacheHits;
    if (traced)
        out << ", \"traced_passes\": " << traced->seconds.size()
            << ", \"traced_pass_s\": " << numList(traced->seconds)
            << ", \"traced_pool_worker_share\": "
            << numList(traced->workerShare);
    if (layers)
        out << ", \"leg_reps\": " << kLegReps
            << ", \"stack_scaling\": " << numList(layers->stackScaling);
    out << "}}";
    return out.str();
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    setQuiet(true);

    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &candidate : kWorkloads)
        if (args.workload == candidate.name)
            def = &candidate;
    if (!def)
        fatal("perfbench: unknown workload '%s'", args.workload.c_str());

    // The pool is capped at four threads, so runs on bigger hosts
    // measure the same load shape.
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    setParallelThreads(std::min(hw, 4u));

    const double scale = def->scale * args.scaleMult;
    const SystemConfig design = streamDesign(args.configDir);
    std::filesystem::create_directories(args.tmpDir);
    TmpDirGuard guard{args.tmpDir};

    // Set-up runs several times so its median is steady.  Each copy
    // is dropped and handed back to the system before the next is
    // made, so every repetition starts cold, and the last one is used.
    constexpr int kSetupReps = 5;
    std::vector<double> setup_s, gen_s;
    Inputs in;
    for (int r = 0; r < kSetupReps; ++r) {
        in = Inputs{};
        malloc_trim(0);
        SetupTiming timing;
        in = setUp(args.seed, scale, args.tmpDir, timing);
        setup_s.push_back(timing.genSeconds + timing.writeSeconds);
        gen_s.push_back(timing.genSeconds);
    }

    // The reference is computed once, outside every timed pass.
    WorkloadState state;
    Workload w = makeWorkload(def->kind, in, design, state);

    // Warm-up: memoizes trace hashes and faults in pages; checked
    // like every other pass but not timed.
    PassLog warm;
    timedPass(w, warm);

    PassLog log;
    PassLog traced;
    LayerReport layers;
    double peak_heap_mb = 0.0;
    if (!args.trace) {
        HeapSampler heap;
        timedLoop(w, log, args.seconds, true);
        peak_heap_mb = static_cast<double>(heap.stop()) / (1024.0 * 1024.0);
    } else {
        // A quarter of the time each for untraced and traced passes
        // (the overhead estimate); the legs take the rest.
        timedLoop(w, log, args.seconds / 4, false);
        if (!trace_event::beginSession(args.traceOut))
            fatal("perfbench: cannot open a trace session");
        timedLoop(w, traced, args.seconds / 4, false);
        runLayerLegs(in, design, w, layers);
        if (!trace_event::endSession())
            fatal("perfbench: cannot write %s", args.traceOut.c_str());
    }

    const std::uint64_t sim_cache_hits =
        warm.simCacheHits + log.simCacheHits + traced.simCacheHits;
    const std::uint64_t attempted =
        warm.attempted + log.attempted + traced.attempted;
    const std::uint64_t failed = warm.failed + log.failed + traced.failed;
    if (sim_cache_hits != 0)
        warn("perfbench: %llu SimCache hits in timed passes",
             static_cast<unsigned long long>(sim_cache_hits));
    const bool correct = failed == 0 && sim_cache_hits == 0 && layers.ok;

    const double p50 = median(log.seconds);
    const Tail tail = tailOf(log.seconds);
    MetricSet metrics;
    if (!args.trace) {
        metrics.add("setup_s", median(setup_s), "s");
        metrics.add("pass_s_p50", p50, "s");
        metrics.add("pass_s_tail", tail.value, "s");
        metrics.add("refs_per_s", static_cast<double>(w.refsPerPass) / p50,
                    "refs/s");
        metrics.add("points_per_s", static_cast<double>(w.points) / p50,
                    "points/s");
        metrics.add("peak_heap_mb", peak_heap_mb, "MB");
    } else {
        const SimCounts &c = w.counts;
        metrics = layers.metrics;
        metrics.add("trace.gen_s", median(gen_s), "s");
        metrics.add("pool.worker_share", median(log.workerShare), "fraction");
        metrics.add("pool.tasks", median(log.tasks), "count");
        metrics.add("pool.serial_runs", median(log.serialRuns), "count");
        metrics.add("sim_cache.hits", static_cast<double>(sim_cache_hits),
                    "count");
        metrics.add("l1.read_misses", static_cast<double>(c.l1ReadMisses),
                    "count");
        metrics.add("l2.accesses", static_cast<double>(c.l2Accesses),
                    "count");
        metrics.add("tlb.misses", static_cast<double>(c.tlbMisses), "count");
        metrics.add("wb.enqueued", static_cast<double>(c.wbEnqueued),
                    "count");
        metrics.add("wb.full_stall_cycles",
                    static_cast<double>(c.wbFullStallCycles), "cycles");
        metrics.add("mem.busy_cycles", static_cast<double>(c.memBusyCycles),
                    "cycles");
        metrics.add("cycles_per_ref",
                    static_cast<double>(c.cycles) /
                        static_cast<double>(c.refs),
                    "cycles/ref");
        metrics.add("trace_overhead_frac", median(traced.seconds) / p50 - 1.0,
                    "fraction");
    }

    std::cout << reportJson(args, *def, scale, w, log, setup_s, gen_s, tail,
                            args.trace ? &traced : nullptr,
                            args.trace ? &layers : nullptr)
              << "\n";
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed
              << ", \"metrics\": " << metrics.json() << "}" << std::endl;
    return correct ? 0 : 3;
}
