// Strict reader for the JSONL channel traces that comm::Channel streams
// when CCMX_TRACE_FILE is set.
//
// Li–Sun–Wang–Woodruff-style analyses treat the per-round, per-agent
// traffic as the primary quantity, so this module reconstructs exactly
// that from the raw event stream: sends are grouped by channel id, rounds
// are rebuilt from speaker alternation and cross-checked against the
// recorded round numbers, and the totals are conserved against the
// comm.bits.agent0/1 counters of a matching run report.  The parser is
// deliberately strict — a malformed line, a gap in the per-channel
// message sequence, or a truncated final line (no trailing newline, the
// signature of a killed writer) all throw util::contract_error with the
// offending line number, so a corrupt trace can never silently produce a
// wrong table.
//
// fit_power_law() is the shared least-squares half of the E1/E2/E11
// analyses: log2-log2 regression of measured bits against the paper's
// predictors (k·n² for the send-half bound, n²·max{log n, log k} for
// fingerprinting).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/json_reader.hpp"

namespace ccmx::obs {

/// One {"ev":"send",...} line, as comm::Channel writes it.
struct SendEvent {
  std::uint64_t channel = 0;  // "ch": process-unique channel id
  unsigned from = 0;          // sending agent, 0 or 1
  std::uint64_t bits = 0;     // payload size of this message
  std::uint64_t round = 0;    // 1-based round number recorded by the writer
  std::uint64_t msg = 0;      // 1-based message number within the channel
  std::uint64_t span = 0;     // enclosing span id; 0 outside any span
  std::uint64_t tid = 0;      // writer thread id
  std::int64_t t_us = 0;
};

/// One {"ev":"span",...} line, as obs::ScopedSpan writes it.
struct SpanEvent {
  std::uint64_t id = 0;  // process-unique, never 0
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t tid = 0;
  std::string name;
  std::int64_t t_us = 0;    // start time (emission happens at scope exit)
  std::int64_t dur_us = 0;
  /// "args" members, stringified (numbers rendered shortest-round-trip).
  std::vector<std::pair<std::string, std::string>> args;

  [[nodiscard]] std::int64_t end_us() const noexcept { return t_us + dur_us; }
};

/// One reconstructed round: consecutive sends by the same speaker.
struct RoundStats {
  std::uint64_t round = 0;
  unsigned speaker = 0;
  std::uint64_t bits = 0;
  std::uint64_t messages = 0;
};

struct AgentStats {
  std::uint64_t bits = 0;
  std::uint64_t messages = 0;
};

/// All traffic of one Channel object (one protocol execution).
struct ChannelStats {
  std::uint64_t id = 0;
  std::vector<RoundStats> rounds;
  AgentStats agents[2];

  [[nodiscard]] std::uint64_t total_bits() const noexcept {
    return agents[0].bits + agents[1].bits;
  }
};

/// A fully parsed trace: per-channel traffic plus process-wide totals.
struct ChannelTrace {
  std::vector<ChannelStats> channels;  // ordered by first appearance
  AgentStats agents[2];                // summed over all channels
  std::vector<SpanEvent> spans;        // in file (= scope-exit) order
  std::uint64_t send_events = 0;
  std::uint64_t span_events = 0;
  std::uint64_t other_events = 0;  // neither send nor span; not modeled

  [[nodiscard]] std::uint64_t total_bits() const noexcept {
    return agents[0].bits + agents[1].bits;
  }
  [[nodiscard]] std::uint64_t total_rounds() const noexcept;
};

/// Parses a complete JSONL trace.  Throws util::contract_error (with a
/// 1-based line number) on: a line that is not a JSON object, a missing
/// or non-string "ev", a "send" or "span" event with a missing or
/// ill-typed field or an out-of-range agent, a per-channel
/// message-sequence gap, a recorded round number that contradicts the
/// speaker-alternation reconstruction, or input whose final line is not
/// newline-terminated (truncation).
[[nodiscard]] ChannelTrace parse_channel_trace(std::string_view text);

/// Reads and parses a trace file; throws on unreadable paths too.  The
/// file moves through TraceStream in bounded chunks, so only the parsed
/// representation (not the raw bytes) is ever resident.
[[nodiscard]] ChannelTrace read_channel_trace_file(const std::string& path);

// ------------------------------------------------------ streaming reader

/// Options for TraceStream.  The default reproduces parse_channel_trace's
/// strict behavior exactly.
struct TraceReadOptions {
  /// Tolerate a final line without its newline (a killed writer):
  /// counted as one truncation, the partial line is discarded.  Every
  /// other defect still throws.
  bool tolerate_truncated_tail = false;
};

/// What the streaming reader observed beyond the trace content itself.
struct TraceReadStats {
  std::uint64_t lines = 0;      ///< non-empty event lines parsed
  bool truncated_tail = false;  ///< final line lacked its newline
};

/// Chunked streaming parser over JSONL trace bytes: feed() arbitrary
/// partial chunks (lines may split anywhere), then finish().  Sends fold
/// into per-channel and per-round aggregates and are not stored, so
/// memory grows with channels, rounds and spans, not with messages;
/// per-event callbacks see every send/span in file order (the Chrome
/// export streams sends through on_send).
class TraceStream {
 public:
  explicit TraceStream(TraceReadOptions options = {});

  /// Per-event hooks, invoked before the event folds into the
  /// aggregates.  Install before feeding.
  std::function<void(const SendEvent&)> on_send;
  std::function<void(const SpanEvent&)> on_span;

  /// Parses every complete line in `chunk`; a trailing partial line is
  /// carried into the next feed().  Throws like parse_channel_trace.
  void feed(std::string_view chunk);

  /// Settles the carry buffer (a leftover partial line is a truncated
  /// tail).  feed() must not be called afterwards.
  void finish();

  /// Streams a whole file through feed()/finish() in bounded chunks;
  /// throws on unreadable paths.
  void consume_file(const std::string& path);

  [[nodiscard]] const TraceReadStats& stats() const noexcept {
    return stats_;
  }
  /// The accumulated trace: per-channel aggregates and every span.
  [[nodiscard]] const ChannelTrace& trace() const noexcept { return trace_; }
  [[nodiscard]] ChannelTrace take_trace() noexcept {
    return std::move(trace_);
  }

 private:
  void parse_line(std::string_view line);
  void handle_send(const json::Value& obj);

  TraceReadOptions options_;
  TraceReadStats stats_;
  ChannelTrace trace_;
  std::map<std::uint64_t, std::size_t> channels_;  // id -> trace_.channels
  std::string carry_;       // partial line split across feed() chunks
  std::size_t line_no_ = 0;
  bool finished_ = false;
};

// -------------------------------------------------- telemetry timeseries

/// One parsed ccmx.timeseries/1 row (see obs/hwcounters.hpp for the
/// writer).  rss/utime/stime are cumulative at the sample instant; the
/// hw numbers and counter deltas cover the interval since the previous
/// row (dt_us).
struct TimeseriesRow {
  std::uint64_t seq = 0;
  std::int64_t t_us = 0;
  std::int64_t dt_us = 0;
  std::int64_t rss_bytes = 0;
  double utime_s = 0.0;
  double stime_s = 0.0;
  std::uint64_t minor_faults = 0;
  std::uint64_t major_faults = 0;
  /// obs counter deltas over the interval (only counters that moved).
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  bool hw_available = false;
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  double ipc = 0.0;
  double cache_miss_rate = 0.0;
  std::uint64_t task_clock_ns = 0;
};

/// A loaded telemetry series.  Foreign-schema or unparseable lines are
/// counted in `skipped`, structural issues (unreadable file, rows out of
/// order) land in `problems` — tolerant by design, since a sampler can
/// be killed mid-row.
struct TimeseriesResult {
  std::string path;
  std::vector<TimeseriesRow> rows;
  std::size_t skipped = 0;
  std::vector<std::string> problems;

  /// Wall-clock span covered by the rows, in seconds (0 for < 2 rows).
  [[nodiscard]] double span_seconds() const noexcept {
    return rows.size() < 2 ? 0.0
                           : static_cast<double>(rows.back().t_us -
                                                 rows.front().t_us) /
                                 1e6;
  }
};

/// Loads a ccmx.timeseries/1 JSONL file.  A missing file is a problem
/// (callers asked for this path explicitly), malformed or foreign lines
/// are skipped and counted, and a torn final line (killed sampler) counts
/// as one skip, not an error.
[[nodiscard]] TimeseriesResult load_timeseries(const std::string& path);

/// Conservation check of a trace against the counters of a
/// ccmx.run_report/1 document from the same process: comm.bits.agent0/1,
/// comm.messages, comm.rounds, and the per-round bit partition
/// (comm.bits.round1..round8 + comm.bits.round_overflow) must all match
/// the reconstruction exactly, and the event ledger must balance (lines
/// parsed + obs.trace.dropped >= obs.trace.emitted, with trace_truncated
/// set exactly when events were dropped or the file failed to open).
/// Returns human-readable mismatches (empty = conserved).  A report
/// missing any of these counters, or the trace_truncated flag, fails the
/// check: it cannot come from the instrumented run that wrote the trace.
[[nodiscard]] std::vector<std::string> check_trace_against_report(
    const ChannelTrace& trace, const json::Value& report_doc);

/// Least-squares fit of log2(y) = slope * log2(x) + intercept over
/// strictly positive samples.
struct PowerLawFit {
  double slope = 0.0;
  double log2_intercept = 0.0;
  double r2 = 0.0;  // coefficient of determination in log-log space
  std::size_t points = 0;
};

/// Fits (x, y) pairs; pairs with x <= 0 or y <= 0 are rejected
/// (util::contract_error), as is a sample with fewer than two distinct x.
[[nodiscard]] PowerLawFit fit_power_law(
    const std::vector<std::pair<double, double>>& xy);

// ----------------------------------------------------------- span trees

/// One node of the reconstructed span tree.  Indices refer to
/// SpanForest::spans (the event) and SpanForest::nodes (the children).
struct SpanNode {
  std::size_t span = 0;               // index into SpanForest::spans
  std::vector<std::size_t> children;  // node indices, ordered by t_us
  std::size_t depth = 0;              // 0 at the root
  std::int64_t self_us = 0;           // dur_us minus the children's dur_us
};

/// All spans of one thread, tree-shaped.
struct ThreadSpans {
  std::uint64_t tid = 0;
  std::vector<std::size_t> roots;  // node indices, ordered by t_us
  std::int64_t first_us = 0;       // earliest start across the roots
  std::int64_t last_us = 0;        // latest end across the roots
};

/// Per-thread span trees rebuilt from the flat event stream, with
/// self-time attribution and structural diagnostics.
struct SpanForest {
  std::vector<SpanEvent> spans;      // every span, by t_us
  std::vector<SpanNode> nodes;       // one per entry of `spans`
  std::vector<ThreadSpans> threads;  // ordered by tid
  /// Structural anomalies: duplicate ids, a parent that is missing or on
  /// another thread, a child interval leaking outside its parent
  /// ("unbalanced"), same-parent siblings overlapping in time
  /// ("interleaved").  Empty = clean.
  std::vector<std::string> problems;
};

/// Rebuilds the per-thread span trees from span events.  Malformed
/// *structure* lands in SpanForest::problems (the offending span is
/// reattached as a root so the forest is still renderable); this never
/// throws — parse-level strictness already happened in
/// parse_channel_trace.
[[nodiscard]] SpanForest build_span_forest(
    const std::vector<SpanEvent>& spans);

// -------------------------------------------------- Chrome trace export

/// Streaming converter from a ccmx trace to Chrome trace-event JSON (the
/// Perfetto / chrome://tracing "JSON object format"): spans become
/// complete ("X") events on their thread's track, channel sends become
/// paired slices on per-agent tracks with flow arrows ("s"/"f") from
/// sender to receiver, and metadata events name every track.  The
/// document carries "schema": "ccmx.chrome_trace/1" next to
/// "traceEvents" (the format ignores unknown top-level keys).
///
/// Hook add_span/add_send into TraceStream's callbacks and events write
/// straight through to `os`, so a million-span trace converts without a
/// materialized ChannelTrace.  Track metadata is collected on the fly
/// and emitted at finish() — the JSON object format ignores ordering
/// inside traceEvents, so metadata-last renders identically.
class ChromeTraceWriter {
 public:
  explicit ChromeTraceWriter(std::ostream& os);

  void add_span(const SpanEvent& span);
  void add_send(const SendEvent& send);

  /// Emits the track metadata and closes the document.  Must be called
  /// exactly once, after the last event.
  void finish();

 private:
  std::ostream* os_;
  json::Writer w_;
  std::vector<std::uint64_t> span_tids_;  // deduped at finish
  bool any_send_ = false;
  bool finished_ = false;
  std::uint64_t flow_id_ = 0;
};

}  // namespace ccmx::obs
