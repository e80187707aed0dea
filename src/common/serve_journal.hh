/**
 * @file
 * mssr-serve-journal-v1: the crash-safe job journal behind mssr_serve.
 * One JSONL file; the first line is a schema header, then one line per
 * durable state change -- `submit` (a batch was accepted, with its
 * full job specs), `done` (one job finished, with its full result
 * record), `cancel` and `fail`. Every submit/done append is written
 * with a single write(2) followed by fsync(2), so after a crash at any
 * instant the journal describes exactly the accepted-and-not-yet-
 * finished work: a restarted server replays the journal, marks the
 * journaled completions done, and re-queues only the remainder.
 *
 * The loader tolerates exactly one torn line -- the file's last, the
 * signature of a crash mid-append -- and rejects corruption anywhere
 * else, so a damaged journal is surfaced instead of silently replayed
 * short. `done` records are recovered as their raw JSON text, not a
 * re-serialization, so results served from the journal after a
 * restart are byte-identical to the lines streamed before the crash.
 * docs/FORMATS.md section "mssr-serve-journal-v1" is the normative
 * schema.
 */

#ifndef MSSR_COMMON_SERVE_JOURNAL_HH
#define MSSR_COMMON_SERVE_JOURNAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/mini_json.hh"

namespace mssr
{

/** One replayed journal line (see the file comment for the kinds). */
struct ServeJournalEvent
{
    std::string event;          //!< "submit" | "done" | "cancel" | "fail"
    std::uint64_t batch = 0;
    std::uint64_t job = 0;      //!< done: job index within the batch
    std::string label;          //!< submit: batch label
    std::vector<minijson::JsonValue> jobs; //!< submit: parsed job specs
    std::string record;         //!< done: raw result-record JSON text
    std::string message;        //!< fail: human-readable reason
};

/** Append side (server) and load side (restart) of the journal. */
class ServeJournal
{
  public:
    ServeJournal() = default;
    ~ServeJournal();
    ServeJournal(const ServeJournal &) = delete;
    ServeJournal &operator=(const ServeJournal &) = delete;

    /**
     * Opens @p path for appending (creating it, with the schema
     * header line, when absent or empty). Returns false when the file
     * cannot be opened or created.
     */
    bool open(const std::string &path);
    const std::string &path() const { return path_; }
    void close();

    /** @p specs are canonical one-line job-spec JSON objects. */
    void appendSubmit(std::uint64_t batch, const std::string &label,
                      const std::vector<std::string> &specs);
    /** @p record is one one-line result-record JSON object. */
    void appendDone(std::uint64_t batch, std::uint64_t job,
                    const std::string &record);
    void appendCancel(std::uint64_t batch);
    void appendFail(std::uint64_t batch, const std::string &message);

    /**
     * Replays @p path. Throws std::runtime_error on a missing/invalid
     * schema header or corruption before the final line; a torn final
     * line (crash mid-append) is dropped silently.
     */
    static std::vector<ServeJournalEvent> load(const std::string &path);

  private:
    void appendLine(const std::string &line); // single write + fsync

    int fd_ = -1;
    std::string path_;
};

} // namespace mssr

#endif // MSSR_COMMON_SERVE_JOURNAL_HH
