#include "vm/memory_manager.hh"

#include <algorithm>

#include "base/logging.hh"

namespace eat::vm
{

MemoryManager::MemoryManager(const OsPolicy &policy, std::uint64_t physBytes,
                             std::uint64_t seed)
    : policy_(policy), phys_(physBytes), rng_(seed)
{
    eat_assert(policy.thpCoverage >= 0.0 && policy.thpCoverage <= 1.0,
               "thpCoverage must be in [0, 1]");
    eat_assert(policy.eagerRangesPerRegion >= 1,
               "eagerRangesPerRegion must be >= 1");
}

Region
MemoryManager::mmap(std::uint64_t bytes)
{
    bytes = alignUp(std::max<std::uint64_t>(bytes, 4096), 4096);

    // Large regions are 2 MB aligned virtually so THP can promote the
    // whole interior.
    const Addr valign = bytes >= 2_MiB ? 2_MiB : Addr{4096};
    const Addr vbase = alignUp(nextVbase_, valign);
    nextVbase_ = vbase + bytes + kGuardGap;

    if (policy_.eagerPaging) {
        // Eager paging: allocate the physical backing contiguously at
        // request time and record the range translation(s).
        const unsigned pieces = policy_.eagerRangesPerRegion;
        const std::uint64_t rawPiece = bytes / pieces;
        Addr v = vbase;
        std::uint64_t remaining = bytes;
        for (unsigned i = 0; i < pieces && remaining > 0; ++i) {
            std::uint64_t pieceBytes =
                (i + 1 == pieces) ? remaining
                                  : alignUp(std::max<std::uint64_t>(
                                                rawPiece, 4096), 4096);
            pieceBytes = std::min(pieceBytes, remaining);
            const Addr palign =
                (policy_.transparentHugePages && pieceBytes >= 2_MiB &&
                 pageOffset(v, PageSize::Size2M) == 0)
                    ? 2_MiB
                    : Addr{4096};
            auto pbase = phys_.allocContiguous(pieceBytes, palign);
            if (!pbase)
                eat_fatal("physical memory exhausted (eager alloc of ",
                          pieceBytes, " bytes)");
            rangeTable_.insert({v, v + pieceBytes, *pbase});
            mapChunk(v, *pbase, pieceBytes);
            v += pieceBytes;
            remaining -= pieceBytes;
            if (pieces > 1 && remaining > 0) {
                // Imperfect eager paging: burn one frame between the
                // pieces so first-fit cannot make them physically
                // adjacent again (the range table would merge them).
                (void)phys_.allocContiguous(4096);
            }
        }
    } else if (policy_.transparentHugePages) {
        // THP without eager paging: each aligned 2 MB chunk is promoted
        // independently (with probability thpCoverage); everything else
        // is demand-style 4 KB allocation.
        Addr v = vbase;
        const Addr vend = vbase + bytes;
        while (v < vend) {
            const bool chunkAligned = pageOffset(v, PageSize::Size2M) == 0;
            const bool chunkFits = vend - v >= 2_MiB;
            if (chunkAligned && chunkFits &&
                rng_.chance(policy_.thpCoverage)) {
                auto pbase = phys_.allocContiguous(2_MiB, 2_MiB);
                if (!pbase)
                    eat_fatal("physical memory exhausted (THP chunk)");
                pageTable_.map(v, *pbase, PageSize::Size2M);
                v += 2_MiB;
            } else {
                const Addr next = chunkAligned && chunkFits
                                      ? v + 2_MiB
                                      : std::min(alignUp(v + 1, 2_MiB),
                                                 vend);
                mapScattered(v, next - v);
                v = next;
            }
        }
    } else {
        // 4 KB-only baseline.
        mapScattered(vbase, bytes);
    }

    const Region region{vbase, bytes};
    regions_.push_back(region);
    mappedBytes_ += bytes;
    return region;
}

void
MemoryManager::mapChunk(Addr vbase, Addr pbase, std::uint64_t bytes)
{
    Addr off = 0;
    while (off < bytes) {
        const Addr v = vbase + off;
        const bool hugeCandidate =
            policy_.transparentHugePages &&
            pageOffset(v, PageSize::Size2M) == 0 &&
            pageOffset(pbase + off, PageSize::Size2M) == 0 &&
            bytes - off >= 2_MiB;
        if (hugeCandidate && rng_.chance(policy_.thpCoverage)) {
            pageTable_.map(v, pbase + off, PageSize::Size2M);
            off += 2_MiB;
            continue;
        }
        // 4 KB pages up to the next possible huge-mapping start (the
        // next 2 MB-aligned virtual address) as one bulk install. The
        // interior pages are misaligned, so a per-page walk would draw
        // no coverage chance before that boundary — the alignment
        // tests short-circuit the draw — and the RNG stream is
        // preserved exactly.
        Addr next = bytes;
        if (policy_.transparentHugePages) {
            next = std::min<Addr>(
                bytes, alignUp(v + 4096, Addr{2_MiB}) - vbase);
        }
        pageTable_.mapRun(v, pbase + off, (next - off) / 4096);
        off = next;
    }
}

void
MemoryManager::mapScattered(Addr vbase, std::uint64_t bytes)
{
    // Demand-paged 4 KB allocation; no range translations result.
    // Frames come off the first-fit pool as whole-extent runs, which
    // hands out exactly the frame sequence per-page first-fit
    // allocation would, one bulk page-table install per run.
    std::uint64_t off = 0;
    while (off < bytes) {
        const auto run = phys_.allocRun(bytes - off);
        if (!run)
            eat_fatal("physical memory exhausted (4 KB page)");
        pageTable_.mapRun(vbase + off, run->base, run->bytes / 4096);
        off += run->bytes;
    }
}

std::uint64_t
MemoryManager::demoteRegion(const Region &region)
{
    std::uint64_t demoted = 0;
    for (Addr v = alignUp(region.vbase, 2_MiB);
         v + 2_MiB <= region.vlimit(); v += 2_MiB) {
        if (pageTable_.demote(v))
            ++demoted;
    }
    if (demoted > 0) {
        notifyRemap({RemapKind::Demotion, region.vbase, region.vlimit(),
                     demoted, false});
    }
    return demoted;
}

std::uint64_t
MemoryManager::promoteRegion(const Region &region)
{
    std::uint64_t promoted = 0;
    for (Addr v = alignUp(region.vbase, 2_MiB);
         v + 2_MiB <= region.vlimit(); v += 2_MiB) {
        // Eligible chunks are fully mapped with 4 KB pages.
        const auto first = pageTable_.translate(v);
        if (!first || first->size != PageSize::Size4K)
            continue;
        bool eligible = true;
        bool contiguous = true;
        for (Addr off = 0; off < 2_MiB; off += 4096) {
            const auto t = pageTable_.translate(v + off);
            if (!t || t->size != PageSize::Size4K) {
                eligible = false;
                break;
            }
            if (t->pbase != first->pbase + off)
                contiguous = false;
        }
        if (!eligible)
            continue;

        const bool inPlace =
            contiguous && pageOffset(first->pbase, PageSize::Size2M) == 0;
        Addr target = first->pbase;
        if (!inPlace) {
            // Migration target needed. A live range translation pins
            // the frames (moving them would break it), and a full pool
            // simply fails the promotion — both are the OS giving up on
            // this chunk, not errors.
            if (rangeTable_.lookup(v))
                continue;
            const auto fresh = phys_.allocContiguous(2_MiB, 2_MiB);
            if (!fresh)
                continue;
            target = *fresh;
        }
        for (Addr off = 0; off < 2_MiB; off += 4096) {
            const auto t = pageTable_.translate(v + off);
            pageTable_.unmap(v + off, PageSize::Size4K);
            if (!inPlace)
                phys_.free(t->pbase, 4096);
        }
        pageTable_.map(v, target, PageSize::Size2M);
        ++promoted;
    }
    if (promoted > 0) {
        notifyRemap({RemapKind::Promotion, region.vbase, region.vlimit(),
                     promoted, false});
    }
    return promoted;
}

bool
MemoryManager::compactRegion(const Region &region)
{
    // Allocate the target before freeing the source so first-fit cannot
    // hand the same frames back; failing here leaves the region
    // untouched (the OS abandons the compaction run) and costs no walk
    // of its pages.
    const auto newBase = phys_.allocContiguous(region.bytes, 2_MiB);
    if (!newBase)
        return false;

    // Snapshot the region's leaf mappings: compaction preserves page
    // sizes, so the new block must be carved identically.
    struct Leaf
    {
        Addr vbase;
        Addr pbase;
        PageSize size;
    };
    std::vector<Leaf> leaves;
    for (Addr v = region.vbase; v < region.vlimit();) {
        const auto t = pageTable_.translate(v);
        eat_assert(t.has_value(), "compacting an unmapped page at ", v);
        leaves.push_back({t->vbase, t->pbase, t->size});
        v = t->vbase + pageBytes(t->size);
    }

    for (const auto &leaf : leaves) {
        pageTable_.unmap(leaf.vbase, leaf.size);
        phys_.free(leaf.pbase, pageBytes(leaf.size));
        pageTable_.map(leaf.vbase, *newBase + (leaf.vbase - region.vbase),
                       leaf.size);
    }

    bool rangesChanged = false;
    if (policy_.eagerPaging) {
        // Rewrite the region's range translations onto the new backing.
        // Ranges never span regions (the mmap guard gap), so collecting
        // by start address is exact.
        std::vector<Addr> stale;
        for (const auto &[vbase, range] : rangeTable_) {
            if (vbase >= region.vbase && vbase < region.vlimit())
                stale.push_back(vbase);
        }
        for (const Addr vbase : stale)
            rangeTable_.erase(vbase);
        if (!stale.empty()) {
            rangeTable_.insert(
                {region.vbase, region.vlimit(), *newBase});
            rangesChanged = true;
        }
    }

    notifyRemap({RemapKind::Compaction, region.vbase, region.vlimit(),
                 leaves.size(), rangesChanged});
    return true;
}

void
MemoryManager::notifyRemap(const RemapEvent &event)
{
    if (remapListener_)
        remapListener_(event);
}

double
MemoryManager::rangeCoverage() const
{
    if (mappedBytes_ == 0)
        return 0.0;
    return static_cast<double>(rangeTable_.coveredBytes()) /
           static_cast<double>(mappedBytes_);
}

} // namespace eat::vm
