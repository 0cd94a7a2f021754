/**
 * @file
 * Metamorphic and invariant oracles over full simulations.
 *
 * Each oracle states a property that must hold for *every* scenario the
 * generator can emit — no golden outputs, no per-workload expectations.
 * Every scenario runs on the one engine and is judged on one path; an
 * oracle whose premise needs one core or several applies only there.
 *
 * Every scenario:
 *
 *  - replay determinism: two runs of the same scenario produce
 *    bit-identical results (resultDigest() of the one core, named
 *    replay-determinism; mcResultDigest() of a multicore run, named
 *    mc-replay-determinism);
 *  - checker activity: every core's Full-level shadow checker performs
 *    translation checks;
 *  - checker silence: with no fault plan, the differential checker
 *    reports zero mismatches and nothing is injected;
 *  - fault detection: once a lookup hits a ppn-flipped entry (a
 *    consumed flip) the targeted core's checker must fire (silent
 *    corruption is itself a bug); flips never read may stay silent,
 *    and every other core's checker must stay silent;
 *  - energy conservation: the accounted category totals equal the sum
 *    over per-structure rows, and the event-count identities
 *    (mem ops == hits by source, L2 lookups == L1 misses, walk memory
 *    references == the walk-memory row, ...) all balance;
 *  - nested-walk accounting: under a paged host every guest walk
 *    reference plus the data address takes one host walk
 *    (hostWalks == walkMemRefs + l2Misses), the host-PWC is probed
 *    once per host walk, and flat/identity runs keep the host
 *    dimension at zero;
 *  - l3 accounting: the tier is probed on every L2 miss and its rows
 *    charge one read per probe stage; without a tier every L3 counter
 *    stays zero;
 *  - provenance reconciliation: the traced events' energy equals the
 *    meters' rows bit for bit, per core and structure.
 *
 * Multicore scenarios only:
 *
 *  - shootdown accounting: per-core invalidations sum to the run's
 *    tally, and each remap is charged to exactly one cost book;
 *  - coherence equivalence: `--coherence=hw` changes only the cost
 *    book — its architectural outcome digest equals the IPI twin's.
 *
 * Single-core scenarios only:
 *
 *  - vm-identity equivalence: an identity host table is
 *    digest-identical to bare metal;
 *  - way-mask monotonicity (LRU inclusion): shrinking the L1 4 KB TLB
 *    from 64x4 to 32x2 to 16x1 — same set count, so identical per-set
 *    reference streams — never gains hits and never changes any
 *    translation result.
 *
 * runOracles() can apply a deliberate Mutation to prove the oracles
 * have teeth: each mutation must be caught, and the self-test in
 * tools/eatfuzz fails if one slips through.
 */

#ifndef EAT_QA_ORACLES_HH
#define EAT_QA_ORACLES_HH

#include <string>
#include <vector>

#include "mc/mc_simulator.hh"
#include "qa/scenario.hh"
#include "sim/simulator.hh"

namespace eat::qa
{

/** Deliberate defects used to self-test the oracle suite. */
enum class Mutation
{
    None,
    /** Drop part of one structure's accounted read energy. */
    SkipEnergyCharge,
    /** Corrupt TLB fills without declaring a fault plan. */
    CorruptTlbFill,
};

/** The outcome of running every applicable oracle on one scenario. */
struct OracleVerdict
{
    /** Oracles evaluated (a scenario never exercises all of them). */
    std::vector<std::string> checked;

    /** Violations, each "oracle-name: detail". Empty = pass. */
    std::vector<std::string> violations;

    /** Digest of the primary run, for cross-run comparisons. */
    std::string digest;

    bool passed() const { return violations.empty(); }
};

/**
 * Deterministic digest of everything a simulation computed, excluding
 * wall-clock fields, so two runs of one scenario can be compared for
 * bit-identity.
 */
std::string resultDigest(const sim::SimResult &result);

/**
 * Deterministic digest of a multicore run: the per-core digests plus
 * the multicore-only state resultDigest() does not see (context-switch
 * and shootdown counters, both coherence cost books, per-task facts).
 */
std::string mcResultDigest(const mc::McResult &result);

/**
 * Architectural-outcome digest of a multicore run: everything
 * mcResultDigest() covers except the remap-propagation cost books
 * (IPI shootdown cycles/energy and hw coherence probes/cycles/energy)
 * and the run's declared coherence mode. Two runs that differ only in
 * `--coherence` must produce identical outcome digests — the modes
 * charge different costs for the *same* invalidations.
 */
std::string mcOutcomeDigest(const mc::McResult &result);

/** Run every applicable oracle on @p scenario. The verdict digest is
 *  resultDigest() of a single-core scenario's one core, otherwise
 *  mcResultDigest(). */
OracleVerdict runOracles(const Scenario &scenario,
                         Mutation mutation = Mutation::None);

} // namespace eat::qa

#endif // EAT_QA_ORACLES_HH
