/**
 * @file
 * The checkpoint journal: an append-only JSONL record of every settled
 * campaign cell, so a killed campaign resumes instead of restarting.
 *
 * Life cycle: a fresh campaign create()s the journal (one "meta"
 * record naming the campaign fingerprint), then append()s one "cell"
 * record — key, failure class, diagnostics, and the child's payload —
 * per settled task, flushed per record. A resumed campaign load()s the
 * journal back: the version and the fingerprint must match (resuming a
 * different grid silently corrupting results is the worst failure mode
 * a checkpoint can have), a truncated final record (the kill -9
 * signature) is dropped and reported, duplicate keys resolve last-wins,
 * and the file
 * is then *compacted* — rewritten through a temp file + rename with
 * only the surviving records — before appending resumes. Compaction
 * keeps the journal O(cells) across any number of interruptions and
 * guarantees the on-disk file is parseable end-to-end again.
 *
 * Record format (schema "eat.campaign.journal", v2), one per line:
 *
 *   {"schema": "eat.campaign.journal", "v": 2, "kind": "meta",
 *    "fingerprint": ...}
 *   {"schema": "eat.campaign.journal", "v": 2, "kind": "cell",
 *    "key": ..., "class": failureClassName(...), "exit": N,
 *    "signal": N, "attempts": N, "quarantined": bool, "error": ...,
 *    "payload": ...}
 *
 * v2 records the outcome's failure class where v1 recorded the pool's
 * task state, so a resumed outcome is exactly the journaled one. A
 * journal of any other version is refused on load: journals hold one
 * campaign's state, not results worth migrating.
 */

#ifndef EAT_CAMPAIGN_JOURNAL_HH
#define EAT_CAMPAIGN_JOURNAL_HH

#include <cstddef>
#include <string>
#include <vector>

#include "base/status.hh"
#include "campaign/jsonl.hh"
#include "campaign/retry.hh"

namespace eat::campaign
{

/** Schema identifier stamped into every journal record. */
inline constexpr std::string_view kJournalSchema = "eat.campaign.journal";
inline constexpr int kJournalVersion = 2;

/** One settled task, as the journal records it (fromCheckpoint is not
 *  recorded). */
struct JournalEntry
{
    std::string key; ///< stable task identity ("mcf:THP", "scenario-7")
    TaskOutcome outcome;
};

/** The append-only checkpoint file; see the file comment. */
class CheckpointJournal
{
  public:
    /** What load() recovered from an interrupted campaign. */
    struct Recovered
    {
        /** Final entry per key, in first-seen order. */
        std::vector<JournalEntry> entries;

        /** Diagnostic when a truncated tail was dropped; else empty. */
        std::string truncatedTail;
    };

    CheckpointJournal() = default;

    /**
     * Start a fresh journal at @p path (truncating any previous one)
     * whose meta record carries @p fingerprint.
     */
    static Result<CheckpointJournal> create(const std::string &path,
                                            const std::string &fingerprint);

    /**
     * Resume from an existing journal: verify the version and the
     * fingerprint, recover
     * the settled entries into @p out, compact the file, and reopen it
     * for appending. A missing file degrades to create() — resuming a
     * campaign that never checkpointed just starts over.
     */
    static Result<CheckpointJournal> load(const std::string &path,
                                          const std::string &fingerprint,
                                          Recovered &out);

    /** Record one settled task, flushed before return. */
    Status append(const JournalEntry &entry);

    /** Cell records appended through this handle (testing/kill-after). */
    std::size_t appended() const { return cells_; }

    const std::string &path() const { return writer_.path(); }

  private:
    JsonlWriter writer_;
    std::size_t cells_ = 0;
};

} // namespace eat::campaign

#endif // EAT_CAMPAIGN_JOURNAL_HH
