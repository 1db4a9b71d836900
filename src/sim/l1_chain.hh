/**
 * @file
 * The inclusion-chain L1 front: one probe walk per reference serves
 * every L1 size of a sub-batch (DESIGN.md sections 9 and 10).
 *
 * Direct-mapped caches of one role that differ only in size obey
 * set-refinement inclusion (core/stack_sim.hh gives the proof): a
 * block resident in the smaller cache is resident in every larger
 * one.  A chain keeps one layer per size, smallest first, and walks
 * each reference up it until its first hit; every larger layer hits
 * and keeps its state, every smaller one misses and - unless the
 * reference is a no-write-allocate store - allocates.  The walk logs
 * the first hit's depth per reference and, per layer, the
 * AccessOutcome of every miss there, so a member timing any one size
 * reads what its own Cache would have reported.
 *
 * Dirty words are kept lazily.  A store sets its word's dirty bit
 * only at the smallest layer that holds the block after the access;
 * a block's dirty mask at layer k is the OR of its masks at layers
 * 0..k that hold it.  When layer k evicts a block, the block is still
 * resident at layer k+1, so its mask ORs into that line in O(1).
 * Layers are processed smallest first within one access, so by the
 * time layer k evicts a block its mask holds every smaller layer's.
 *
 * A layer line is a fused (block << 16 | pid) key plus a 64-bit
 * dirty mask: 16 bytes, against 80 for a Cache line.  Blocks at or
 * above 2^47 hold a sentinel key and keep their exact tag in a cold
 * per-layer map.
 */

#ifndef CACHETIME_SIM_L1_CHAIN_HH
#define CACHETIME_SIM_L1_CHAIN_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cache/cache.hh"
#include "sim/front_log.hh"
#include "sim/system_config.hh"

namespace cachetime
{

/**
 * @return whether @p config's L1s can be layers of a chain:
 * virtually addressed, not coherent, direct-mapped, demand fetch of
 * whole blocks of at most 64 words, no prefetch and no victim cache.
 */
bool chainEligible(const SystemConfig &config);

/** The layered L1 state of one chain front. */
class L1Chain
{
  public:
    /**
     * Build one layer per config of @p layers.  Every config must be
     * chainEligible() and share all L1 organization but the sizes,
     * which must not decrease along the list.
     */
    explicit L1Chain(const std::vector<const SystemConfig *> &layers);

    /** @return the number of layers. */
    unsigned size() const { return layerCount_; }

    /**
     * Walk @p n references up the chain and rewrite @p log: the
     * first-hit depth of each reference, each layer's miss records in
     * issue order, and each layer's hit runs.  @p Pair must match
     * the members' couplet pairing.
     */
    template <bool Pair, bool Split>
    void walk(const Ref *refs, std::size_t n, FrontLog &log);

    /** @return layer @p layer's statistics for one L1 role. */
    CacheStats stats(bool iside, unsigned layer) const;

    /** Reset every layer's statistics (measurement start). */
    void resetStats();

  private:
    struct Line
    {
        std::uint64_t key;   ///< fused key, or a sentinel
        std::uint64_t dirty; ///< lazy dirty-word mask
    };

    /** Exact tag of a line holding a block at or above 2^47. */
    struct WideTag
    {
        Addr block;
        Pid pid;
    };

    /** What a layer counts itself; the rest follows from the role. */
    struct Counters
    {
        std::uint64_t readMisses = 0;
        std::uint64_t writeMisses = 0;
        std::uint64_t blocksReplaced = 0;
        std::uint64_t dirtyBlocksReplaced = 0;
        std::uint64_t dirtyWordsReplaced = 0;
    };

    struct Layer
    {
        std::uint64_t setMask;
        std::vector<Line> lines;
        std::unordered_map<std::uint64_t, WideTag> wide;
        Counters counters;
    };

    /** The layers of one L1 role (the I side of a split L1, or D). */
    struct Role
    {
        std::vector<Layer> layers;
        unsigned blockShift = 0;
        unsigned blockWords = 0;
        Addr blockMask = 0;
        /** Masks the pid out of key compares when tags ignore it. */
        std::uint64_t keyMask = 0;
        bool writeBack = true;
        bool writeAllocate = false;
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;

        void build(const std::vector<const CacheConfig *> &caches);
    };

    /** @return the first hit's depth of @p block in @p role. */
    unsigned find(const Role &role, Addr block, Pid pid) const;

    /**
     * Allocate @p block in layers [0, @p depth) of @p role, logging
     * each layer's miss and moving each dirty victim's mask up.
     */
    void allocate(Role &role, unsigned depth, Addr block, Pid pid,
                  unsigned offset, AccessOutcome **records);

    unsigned layerCount_;
    Role iside_; ///< split L1 only
    Role dside_;
};

} // namespace cachetime

#endif // CACHETIME_SIM_L1_CHAIN_HH
