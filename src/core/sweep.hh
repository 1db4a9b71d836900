/**
 * @file
 * The config-batched sweep engine: one trace pass, many caches.
 *
 * Grid sweeps historically cost O(configs x refs) because every grid
 * point re-consumed the whole reference stream.  This module is the
 * batched counterpart, built on System's resumable run interface
 * (beginRun / feedChunk / endRun): a ChunkFeeder decodes each span
 * of the stream once and replays it across a batch of machines whose
 * state lives in one contiguous arena, so trace I/O, decode and
 * synthetic-stream generation are paid once per span instead of once
 * per config.  Results are bit-identical to running each config
 * alone - a machine's evolution depends only on its own state and
 * the reference sequence, and tests/test_differential.cc holds the
 * batched path to exact agreement at 1 and 8 threads.
 *
 * Within a batch, machines that differ only in timing (equal
 * lockstepKey) form a lockstep group sharing one L1 front: the L1
 * cache(s) and TLB are probed once per reference for the group and
 * the outcome is replayed into every member's timing state
 * (System::feedGroup).  This is exact for the same reason live-point
 * warm restores are: a cache's organizational behaviour does not
 * depend on the cycle time or on anything below it.  A batch slot
 * therefore costs one timing pass per reference, plus one L1/TLB
 * probe per distinct group in the batch.  Direct-mapped machines
 * that also differ in L1 size (equal chainKey) share one
 * inclusion-chain front instead: one probe walk per reference serves
 * every size of the batch (sim/l1_chain.hh).  The entry points list
 * each chain's members adjacently with their sizes ascending
 * (lockstepOrder) before cutting sub-batches, so every sub-batch is a
 * contiguous chain segment and sharing does not depend on the
 * caller's grid order.
 *
 * The cycle-accurate lattice here is one of the sweep engine's two
 * cooperating paths; the other is the stack-simulation kernel
 * (core/stack_sim.hh), which answers miss-ratio-only queries for
 * whole power-of-two size/assoc grids in a single pass.  The
 * mode-selecting entry points that choose between them live in
 * core/experiment.hh (runGeoMeanMany) and core/stack_sim.hh
 * (runMissRatioMany).
 */

#ifndef CACHETIME_CORE_SWEEP_HH
#define CACHETIME_CORE_SWEEP_HH

#include <memory>
#include <vector>

#include "core/sim_cache.hh"
#include "sim/system.hh"

namespace cachetime
{

/** Tuning knobs for the fused batch driver. */
struct BatchOptions
{
    /**
     * Most configs replayed per stream pass.  Each slot costs a
     * timing pass over every reference; its L1/TLB probe is paid
     * once per front, so a slot whose lockstep group is already in
     * the batch adds only the timing pass and no L1 arrays, and a
     * chain front's one walk serves every L1 size of the batch.  On
     * the 44-point timing grid (4-vCPU Xeon) one thread's probe time
     * fell from 1.2 s at width 8 to 0.57 s at 24 and 0.46 s at 44,
     * while the timing passes stayed put; at four threads 44 leaves
     * one task per trace and the pool idles, and 24 beat 8 in each
     * of four interleaved benchmark rounds (by 3-7%).
     */
    std::size_t maxBatch = 24;

    /**
     * Cap on the summed state-arena footprint of one sub-batch, so a
     * sweep over multi-megabyte caches cannot balloon resident
     * memory (a 2MB-word cache costs ~40MB of simulator state).  A
     * lockstep group's shared L1 counts once.  A sub-batch always
     * admits at least one config.
     */
    std::size_t memoryBudgetBytes = std::size_t{256} << 20;
};

/**
 * Run every config over @p source in one streaming pass and return
 * the per-config results, index-aligned with @p configs.  The caller
 * sizes the batch (see BatchOptions and configFootprintBytes); this
 * driver builds all machines up front, so its peak memory is the sum
 * of their footprints.
 */
std::vector<SimResult>
simulateBatch(const std::vector<SystemConfig> &configs,
              RefSource &source);

/**
 * Batched counterpart of simulateSourceCached: probe the global
 * SimCache per (config, stream) first, fuse only the misses into
 * memory-bounded sub-batches, and memoize each finished result, so a
 * partially-cached lattice re-simulates exactly its missing points.
 * Results are index-aligned with @p configs.
 */
std::vector<std::shared_ptr<const SimResult>>
simulateSourceCachedMany(const std::vector<SystemConfig> &configs,
                         RefSource &source,
                         const BatchOptions &options = {});

/**
 * @return an estimate of one machine's simulation-state footprint
 * (cache arrays dominate), used to pack sub-batches under
 * BatchOptions::memoryBudgetBytes.
 */
std::size_t configFootprintBytes(const SystemConfig &config);

/**
 * @return the part of configFootprintBytes() held by the L1 arrays,
 * which a lockstep group allocates once for all members: Cache
 * arrays, or a chain layer's 16-byte lines for a chainEligible()
 * config.
 */
std::size_t frontFootprintBytes(const SystemConfig &config);

/**
 * @return the key under which simulateBatch() lets machines share an
 * L1 front: warmStateKey() plus couplet pairing.  Pairing is timing,
 * but it decides at which reference a machine crosses a warm
 * boundary, and the shared L1 statistics are split there.  Coherent
 * configs run their own engine and never share; their key is their
 * simKey().
 */
SimKey lockstepKey(const SystemConfig &config);

/**
 * @return the key under which simulateBatch() lets chainEligible()
 * machines share an inclusion-chain L1 front (sim/l1_chain.hh):
 * lockstepKey() with the L1 sizes left out.  Any other config's
 * chain key is its lockstepKey(): it shares only with its timing
 * siblings.
 */
SimKey chainKey(const SystemConfig &config);

/**
 * @return @p indices (into @p configs) reordered so configs sharing
 * a chainKey() are adjacent, in order of first appearance, and
 * ascend by L1D then L1I size within it; configs of equal sizes -
 * a lockstep group - keep their given order.  Sub-batches cut from
 * this order are contiguous segments of chains and share an L1
 * front whatever order the caller listed the grid in.
 */
std::vector<std::size_t>
lockstepOrder(const std::vector<SystemConfig> &configs,
              const std::vector<std::size_t> &indices);

} // namespace cachetime

#endif // CACHETIME_CORE_SWEEP_HH
