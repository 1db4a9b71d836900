#include "core/experiment.hh"

#include <algorithm>
#include <numeric>

#include "core/sim_cache.hh"
#include "core/sweep.hh"
#include "sim/coherent.hh"
#include "stats/telemetry.hh"
#include "util/logging.hh"
#include "util/mathutil.hh"
#include "util/parallel.hh"

namespace cachetime
{

namespace
{

constexpr double ratioFloor = 1e-9;

using SimResultPtr = std::shared_ptr<const SimResult>;

SimResultPtr
simulateKeyed(const SystemConfig &config, const Trace &trace,
              std::uint64_t trace_hash)
{
    SimCache &cache = SimCache::global();
    if (!cache.enabled())
        return std::make_shared<SimResult>(
            simulateOne(config, trace));
    SimKey key = simKey(config, trace_hash);
    if (SimResultPtr hit = cache.find(key))
        return hit;
    auto result =
        std::make_shared<const SimResult>(simulateOne(config, trace));
    cache.insert(key, result);
    return result;
}

/** Hash each trace once; reused for every config in the batch. */
std::vector<std::uint64_t>
traceHashes(const std::vector<Trace> &traces)
{
    std::vector<std::uint64_t> hashes(traces.size());
    if (SimCache::global().enabled()) {
        for (std::size_t i = 0; i < traces.size(); ++i)
            hashes[i] = traceIdentityHash(traces[i]);
    }
    return hashes;
}

} // namespace

double
geoMeanFloored(std::vector<double> values)
{
    for (double &v : values)
        v = std::max(v, ratioFloor);
    return geometricMean(values);
}

/** Geometric-mean the per-trace results, in trace order. */
AggregateMetrics
aggregateResults(const SystemConfig &config,
                 const std::vector<SimResultPtr> &results)
{
    std::vector<double> cpr, exec, rmiss, imiss, lmiss, wmiss;
    std::vector<double> rtraf, wtraf_b, wtraf_w;
    cpr.reserve(results.size());
    for (const SimResultPtr &r : results) {
        cpr.push_back(r->cyclesPerRef());
        exec.push_back(r->execNsPerRef());
        rmiss.push_back(r->readMissRatio());
        imiss.push_back(r->ifetchMissRatio());
        lmiss.push_back(r->loadMissRatio());
        wmiss.push_back(r->dcache.writeMissRatio());
        rtraf.push_back(r->readTrafficRatio());
        wtraf_b.push_back(
            r->writeTrafficBlockRatio(config.dcache.blockWords));
        wtraf_w.push_back(r->writeTrafficWordRatio());
    }

    AggregateMetrics m;
    m.cyclesPerRef = geoMeanFloored(cpr);
    m.execNsPerRef = geoMeanFloored(exec);
    m.readMissRatio = geoMeanFloored(rmiss);
    m.ifetchMissRatio = geoMeanFloored(imiss);
    m.loadMissRatio = geoMeanFloored(lmiss);
    m.writeMissRatio = geoMeanFloored(wmiss);
    m.readTrafficRatio = geoMeanFloored(rtraf);
    m.writeTrafficBlockRatio = geoMeanFloored(wtraf_b);
    m.writeTrafficWordRatio = geoMeanFloored(wtraf_w);
    return m;
}

SimResult
simulateOne(const SystemConfig &config, const Trace &trace)
{
    if (config.coherent()) {
        CoherentSystem system(config);
        return system.run(trace);
    }
    System system(config);
    return system.run(trace);
}

SimResultPtr
simulateOneCached(const SystemConfig &config, const Trace &trace)
{
    return simulateKeyed(config, trace, traceIdentityHash(trace));
}

SimResultPtr
simulateSourceCached(const SystemConfig &config, RefSource &source)
{
    auto simulate = [&]() -> std::shared_ptr<const SimResult> {
        if (config.coherent()) {
            CoherentSystem system(config);
            return std::make_shared<const SimResult>(
                system.run(source));
        }
        System system(config);
        return std::make_shared<const SimResult>(system.run(source));
    };
    SimCache &cache = SimCache::global();
    if (!cache.enabled())
        return simulate();
    SimKey key = simKey(config, source.contentHash());
    if (SimResultPtr hit = cache.find(key))
        return hit;
    SimResultPtr result = simulate();
    cache.insert(key, result);
    return result;
}

AggregateMetrics
runGeoMean(const SystemConfig &config, const std::vector<Trace> &traces)
{
    if (traces.empty())
        fatal("runGeoMean: no traces supplied");

    telemetry::PhaseTimer timer("simulate");
    std::vector<std::uint64_t> hashes = traceHashes(traces);
    auto results = parallelMap<SimResultPtr>(
        traces.size(), [&](std::size_t i) {
            return simulateKeyed(config, traces[i], hashes[i]);
        });
    return aggregateResults(config, results);
}

std::vector<AggregateMetrics>
runGeoMeanMany(const std::vector<SystemConfig> &configs,
               const std::vector<Trace> &traces)
{
    if (configs.empty())
        return {};
    if (traces.empty())
        fatal("runGeoMeanMany: no traces supplied");

    telemetry::PhaseTimer timer("simulate");
    const std::size_t T = traces.size();
    const std::size_t C = configs.size();
    traceHashes(traces); // memoize each trace's hash before fan-out

    // Fused-batch width: replay each trace across up to maxBatch
    // configs per pass, but never let batching starve the thread
    // pool - keep at least two tasks per worker, degrading to the
    // old one-task-per-(config, trace) shape for small sweeps.
    BatchOptions options;
    const std::size_t threads = std::max(parallelThreads(), 1u);
    const std::size_t width = std::min(
        {options.maxBatch, std::max<std::size_t>(1, C * T / (2 * threads)),
         C});
    const std::size_t groups = (C + width - 1) / width;

    // Cut sub-batches from the lockstep order, so configs that differ
    // only in timing land in one batch and share its L1 probe, and
    // each sub-batch of a direct-mapped size axis is a contiguous
    // segment of its inclusion chain, whatever order the caller
    // listed the grid in.
    std::vector<std::size_t> all(C);
    std::iota(all.begin(), all.end(), std::size_t{0});
    const std::vector<std::size_t> order = lockstepOrder(configs, all);

    auto batches = parallelMap<std::vector<SimResultPtr>>(
        groups * T, [&](std::size_t task) {
            std::size_t g = task / T;
            std::size_t t = task % T;
            std::size_t begin = g * width;
            std::size_t end = std::min(C, begin + width);
            std::vector<SystemConfig> part;
            for (std::size_t k = begin; k < end; ++k)
                part.push_back(configs[order[k]]);
            TraceRefSource source(traces[t]);
            return simulateSourceCachedMany(part, source, options);
        });

    // Scatter the batch slices back into (config-major, trace-minor)
    // order; results are index-aligned, so output is independent of
    // the thread count, the batch width and the lockstep order.
    std::vector<SimResultPtr> results(C * T);
    for (std::size_t task = 0; task < batches.size(); ++task) {
        std::size_t g = task / T;
        std::size_t t = task % T;
        std::size_t begin = g * width;
        for (std::size_t k = 0; k < batches[task].size(); ++k)
            results[order[begin + k] * T + t] =
                std::move(batches[task][k]);
    }

    std::vector<AggregateMetrics> out;
    out.reserve(C);
    for (std::size_t c = 0; c < C; ++c) {
        std::vector<SimResultPtr> slice(
            results.begin() + static_cast<std::ptrdiff_t>(c * T),
            results.begin() + static_cast<std::ptrdiff_t>((c + 1) * T));
        out.push_back(aggregateResults(configs[c], slice));
    }
    return out;
}

} // namespace cachetime
