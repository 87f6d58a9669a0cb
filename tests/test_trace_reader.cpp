// Trace reader: JSONL round-trip from a real instrumented Channel run,
// strict rejection of malformed/truncated/incomplete traces,
// conservation against run-report counters, span trees, the Chrome
// export, and the E1 power-law fit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "comm/channel.hpp"
#include "comm/partition.hpp"
#include "obs/json_reader.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "obs/trace_reader.hpp"
#include "protocols/send_half.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace {

using namespace ccmx;

la::IntMatrix random_entries(std::size_t n, unsigned k,
                             util::Xoshiro256& rng) {
  return la::IntMatrix::generate(n, n, [&](std::size_t, std::size_t) {
    return num::BigInt(
        static_cast<std::int64_t>(rng.below(std::uint64_t{1} << k)));
  });
}

/// One {"ev":"send",...} line as comm::Channel writes it.
std::string send_line(std::uint64_t ch, unsigned from, std::uint64_t bits,
                      std::uint64_t round, std::uint64_t msg,
                      std::int64_t t_us, std::uint64_t span = 0) {
  return "{\"ev\":\"send\",\"ch\":" + std::to_string(ch) +
         ",\"from\":" + std::to_string(from) +
         ",\"bits\":" + std::to_string(bits) +
         ",\"round\":" + std::to_string(round) +
         ",\"msg\":" + std::to_string(msg) +
         ",\"span\":" + std::to_string(span) +
         ",\"tid\":1,\"t_us\":" + std::to_string(t_us) + "}\n";
}

/// One {"ev":"span",...} line as obs::ScopedSpan writes it.
std::string span_line(std::uint64_t id, std::uint64_t parent,
                      std::uint64_t tid, const std::string& name,
                      std::int64_t t_us, std::int64_t dur_us) {
  return "{\"ev\":\"span\",\"id\":" + std::to_string(id) +
         ",\"parent\":" + std::to_string(parent) +
         ",\"tid\":" + std::to_string(tid) + ",\"name\":\"" + name +
         "\",\"t_us\":" + std::to_string(t_us) +
         ",\"dur_us\":" + std::to_string(dur_us) + "}\n";
}

/// `line` without its integer member `key`.
std::string without(std::string line, const std::string& key) {
  const std::size_t at = line.find(",\"" + key + "\":");
  EXPECT_NE(at, std::string::npos) << key << " not in " << line;
  return line.erase(at, line.find_first_of(",}", at + 1) - at);
}

/// A run report carrying every counter check_trace_against_report reads:
/// `counters`, with each one it leaves out at 0, and `truncated` as the
/// trace_truncated flag.
obs::json::Value report_with(std::map<std::string, std::uint64_t> counters,
                             bool truncated = false) {
  for (const char* name :
       {"comm.bits.agent0", "comm.bits.agent1", "comm.messages",
        "comm.rounds", "comm.bits.round_overflow", "obs.trace.emitted",
        "obs.trace.dropped", "obs.trace.open_failed"}) {
    counters.try_emplace(name, 0);
  }
  for (int r = 1; r <= 8; ++r) {
    counters.try_emplace("comm.bits.round" + std::to_string(r), 0);
  }
  std::string text = std::string("{\"trace_truncated\":") +
                     (truncated ? "true" : "false") + ",\"counters\":{";
  const char* sep = "";
  for (const auto& [name, value] : counters) {
    text += sep;
    text += '"' + name + "\":" + std::to_string(value);
    sep = ",";
  }
  return obs::json::parse(text + "}}");
}

/// Streams `text` through a TraceStream into a ChromeTraceWriter.
std::string chrome_json(std::string_view text) {
  std::ostringstream os;
  obs::ChromeTraceWriter writer(os);
  obs::TraceStream stream;
  stream.on_span = [&](const obs::SpanEvent& s) { writer.add_span(s); };
  stream.on_send = [&](const obs::SendEvent& s) { writer.add_send(s); };
  stream.feed(text);
  stream.finish();
  writer.finish();
  return os.str();
}

#ifndef CCMX_OBS_DISABLED

// The JSONL event sink opens lazily on the first emit and reads
// CCMX_TRACE_FILE exactly once, so the path must be armed before any
// test emits an event: done here at static-initialization time.
const std::string g_trace_path = [] {
  std::string path = (std::filesystem::temp_directory_path() /
                      ("ccmx_test_trace_" +
#if defined(__unix__) || defined(__APPLE__)
                       std::to_string(::getpid()) +
#endif
                       std::string(".jsonl")))
                         .string();
  std::filesystem::remove(path);
#if defined(__unix__) || defined(__APPLE__)
  ::setenv("CCMX_TRACE_FILE", path.c_str(), /*overwrite=*/1);
#endif
  return path;
}();

class TracingOn {
 public:
  TracingOn() : was_(obs::enabled()) {
    obs::set_enabled(true);
    obs::reset_values();
  }
  ~TracingOn() {
    obs::reset_values();
    obs::set_enabled(was_);
  }

 private:
  bool was_;
};

TEST(TraceReader, RoundTripsARealInstrumentedRun) {
  const TracingOn guard;
  ASSERT_TRUE(obs::event_sink_open())
      << "CCMX_TRACE_FILE was not armed before the first emit";

  util::Xoshiro256 rng(11);
  const std::size_t n = 4;
  const unsigned k = 2;
  const comm::MatrixBitLayout layout(n, n, k);
  const comm::Partition pi = comm::Partition::pi0(layout);
  const comm::BitVec input = layout.encode(random_entries(n, k, rng));
  const comm::ProtocolOutcome outcome = comm::execute(
      proto::make_send_half_singularity(layout), input, pi);

  // The async pipeline buffers events; settle it before reading back.
  obs::flush_trace_sink();
  const obs::ChannelTrace trace =
      obs::read_channel_trace_file(g_trace_path);
  ASSERT_FALSE(trace.channels.empty());
  // Our run is the most recent channel on the (append-mode) file.
  const obs::ChannelStats& ch = trace.channels.back();
  EXPECT_EQ(ch.total_bits(), outcome.bits);
  EXPECT_EQ(ch.rounds.size(), outcome.rounds);
  EXPECT_EQ(ch.agents[0].messages + ch.agents[1].messages, outcome.messages);
  // Send-half under pi0: agent 0 ships its whole share, agent 1 echoes
  // the answer bit.
  EXPECT_EQ(ch.agents[0].bits, outcome.bits - 1);
  EXPECT_EQ(ch.agents[1].bits, 1u);
  // Per-round reconstruction: round 1 is agent 0's shipment, round 2 the
  // answer.
  ASSERT_EQ(ch.rounds.size(), 2u);
  EXPECT_EQ(ch.rounds[0].speaker, 0u);
  EXPECT_EQ(ch.rounds[0].bits, outcome.bits - 1);
  EXPECT_EQ(ch.rounds[1].speaker, 1u);
  EXPECT_EQ(ch.rounds[1].bits, 1u);
}

TEST(TraceReader, ConservesAgainstRunReportCounters) {
  const TracingOn guard;
  ASSERT_TRUE(obs::event_sink_open());
  // Fresh counter values (reset in the guard) + a fresh slice of the
  // trace: remember how many channels existed before this test's run.
  obs::flush_trace_sink();
  const std::size_t channels_before =
      obs::read_channel_trace_file(g_trace_path).channels.size();

  util::Xoshiro256 rng(23);
  const comm::MatrixBitLayout layout(4, 4, 3);
  const comm::Partition pi = comm::Partition::pi0(layout);
  for (int run = 0; run < 3; ++run) {
    const comm::BitVec input = layout.encode(random_entries(4, 3, rng));
    (void)comm::execute(proto::make_send_half_singularity(layout), input, pi);
  }
  obs::flush_thread();

  obs::RunReport report;
  report.name = "trace_conservation";
  const obs::json::Value doc =
      obs::json::parse(obs::render_run_report(report));

  obs::ChannelTrace trace = obs::read_channel_trace_file(g_trace_path);
  // Drop traffic that predates the counter reset so both sides cover the
  // same window.
  obs::ChannelTrace fresh;
  for (std::size_t i = channels_before; i < trace.channels.size(); ++i) {
    const obs::ChannelStats& ch = trace.channels[i];
    fresh.channels.push_back(ch);
    for (int a = 0; a < 2; ++a) {
      fresh.agents[a].bits += ch.agents[a].bits;
      fresh.agents[a].messages += ch.agents[a].messages;
    }
  }
  const std::vector<std::string> mismatches =
      obs::check_trace_against_report(fresh, doc);
  EXPECT_TRUE(mismatches.empty())
      << (mismatches.empty() ? "" : mismatches.front());
}

TEST(TraceReader, ConservationFailsAgainstForeignReport) {
  const TracingOn guard;
  ASSERT_TRUE(obs::event_sink_open());
  util::Xoshiro256 rng(5);
  const comm::MatrixBitLayout layout(2, 2, 1);
  const comm::Partition pi = comm::Partition::pi0(layout);
  const comm::BitVec input = layout.encode(random_entries(2, 1, rng));
  (void)comm::execute(proto::make_send_half_singularity(layout), input, pi);

  obs::flush_trace_sink();
  const obs::ChannelTrace trace =
      obs::read_channel_trace_file(g_trace_path);
  // An untraced report has no comm.* counters at all.
  const obs::json::Value doc = obs::json::parse(
      R"({"counters": {"exact_cc.nodes": 5}})");
  EXPECT_FALSE(obs::check_trace_against_report(trace, doc).empty());
}

// Regression guard for the span timeline semantics: span events are
// EMITTED at scope exit (innermost first), but their t_us field must be
// the construction time — otherwise every tree rebuilt from a trace
// would have children starting "after" their parents ended.
TEST(TraceReader, SpanEventsRecordStartTimeNotEmissionTime) {
  const TracingOn guard;
  ASSERT_TRUE(obs::event_sink_open());
  obs::flush_trace_sink();
  const std::size_t spans_before =
      obs::read_channel_trace_file(g_trace_path).spans.size();

  {
    obs::ScopedSpan outer("t_us_outer");
    outer.arg("layer", std::uint64_t{1});
    {
      const obs::ScopedSpan inner("t_us_inner");
      (void)inner;
    }
  }
  obs::flush_trace_sink();

  const obs::ChannelTrace trace = obs::read_channel_trace_file(g_trace_path);
  ASSERT_GE(trace.spans.size(), spans_before + 2);
  // File order is emission order: the inner span's line comes FIRST.
  const obs::SpanEvent& inner = trace.spans[spans_before];
  const obs::SpanEvent& outer = trace.spans[spans_before + 1];
  ASSERT_EQ(inner.name, "t_us_inner");
  ASSERT_EQ(outer.name, "t_us_outer");
  // ... yet on the recorded timeline the outer span starts first and
  // fully contains the inner one — t_us is the start, not the emit time.
  EXPECT_LE(outer.t_us, inner.t_us);
  EXPECT_GE(outer.end_us(), inner.end_us());
  // Tree fields round-trip: parent linkage, same thread, args attached.
  EXPECT_GT(inner.id, 0u);
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(inner.tid, outer.tid);
  ASSERT_EQ(outer.args.size(), 1u);
  EXPECT_EQ(outer.args[0].first, "layer");
  EXPECT_EQ(outer.args[0].second, "1");
}

// Channel sends are stamped with the enclosing span and thread so the
// Chrome export can draw flows from inside the right slice.
TEST(TraceReader, SendsCarryEnclosingSpanAndThread) {
  const TracingOn guard;
  ASSERT_TRUE(obs::event_sink_open());
  obs::flush_trace_sink();
  const std::size_t channels_before =
      obs::read_channel_trace_file(g_trace_path).channels.size();

  util::Xoshiro256 rng(31);
  const comm::MatrixBitLayout layout(2, 2, 1);
  const comm::Partition pi = comm::Partition::pi0(layout);
  const comm::BitVec input = layout.encode(random_entries(2, 1, rng));
  (void)comm::execute(proto::make_send_half_singularity(layout), input, pi);
  obs::flush_trace_sink();

  obs::TraceStream stream;
  std::vector<obs::SendEvent> sends;
  stream.on_send = [&](const obs::SendEvent& send) { sends.push_back(send); };
  stream.consume_file(g_trace_path);
  const obs::ChannelTrace trace = stream.take_trace();
  ASSERT_GT(trace.channels.size(), channels_before);
  const std::uint64_t channel = trace.channels.back().id;
  std::erase_if(sends, [&](const obs::SendEvent& send) {
    return send.channel != channel;
  });
  ASSERT_FALSE(sends.empty());
  // comm::execute wraps the run in its own span, so every send of this
  // channel names that span and this thread.
  for (const obs::SendEvent& send : sends) {
    EXPECT_GT(send.span, 0u);
    EXPECT_EQ(send.span, sends.front().span);
    EXPECT_EQ(send.tid, obs::thread_id());
  }
}

#endif  // CCMX_OBS_DISABLED

TEST(TraceReader, ParsesHandwrittenTrace) {
  const std::string text = send_line(7, 0, 10, 1, 1, 5) +
                           span_line(1, 0, 1, "x", 1, 2) +
                           send_line(7, 0, 4, 1, 2, 9) +
                           send_line(7, 1, 1, 2, 3, 12);
  const obs::ChannelTrace trace = obs::parse_channel_trace(text);
  EXPECT_EQ(trace.send_events, 3u);
  EXPECT_EQ(trace.span_events, 1u);
  EXPECT_EQ(trace.other_events, 0u);
  ASSERT_EQ(trace.spans.size(), 1u);
  EXPECT_EQ(trace.spans[0].id, 1u);
  EXPECT_EQ(trace.spans[0].name, "x");
  ASSERT_EQ(trace.channels.size(), 1u);
  const obs::ChannelStats& ch = trace.channels[0];
  EXPECT_EQ(ch.id, 7u);
  ASSERT_EQ(ch.rounds.size(), 2u);
  EXPECT_EQ(ch.rounds[0].bits, 14u);      // two same-speaker messages
  EXPECT_EQ(ch.rounds[0].messages, 2u);
  EXPECT_EQ(ch.rounds[1].bits, 1u);
  EXPECT_EQ(ch.agents[0].bits, 14u);
  EXPECT_EQ(ch.agents[1].bits, 1u);
  EXPECT_EQ(trace.total_bits(), 15u);
}

TEST(TraceReader, DemultiplexesInterleavedChannels) {
  const std::string text = send_line(1, 0, 8, 1, 1, 1) +
                           send_line(2, 1, 2, 1, 1, 2) +
                           send_line(1, 1, 1, 2, 2, 3);
  const obs::ChannelTrace trace = obs::parse_channel_trace(text);
  ASSERT_EQ(trace.channels.size(), 2u);
  EXPECT_EQ(trace.channels[0].id, 1u);
  EXPECT_EQ(trace.channels[0].total_bits(), 9u);
  EXPECT_EQ(trace.channels[1].id, 2u);
  EXPECT_EQ(trace.channels[1].total_bits(), 2u);
  EXPECT_EQ(trace.total_rounds(), 3u);
}

TEST(TraceReader, ConservationChecksPerRoundBitPartition) {
  // Two channels, interleaved rounds: round 1 carries 14+2 bits, round 2
  // carries 1.  The report's dedicated comm.bits.roundN counters must
  // match the partition reconstructed from the trace — not just totals.
  const std::string text = send_line(1, 0, 14, 1, 1, 0) +
                           send_line(2, 0, 2, 1, 1, 1) +
                           send_line(1, 1, 1, 2, 2, 2);
  const obs::ChannelTrace trace = obs::parse_channel_trace(text);

  const auto report = [](std::uint64_t round1, std::uint64_t round2) {
    return report_with({{"comm.bits.agent0", 16},
                        {"comm.bits.agent1", 1},
                        {"comm.messages", 3},
                        {"comm.rounds", 3},
                        {"comm.bits.round1", round1},
                        {"comm.bits.round2", round2}});
  };

  // Exact partition (rounds 3..8 and overflow empty on both sides): clean.
  EXPECT_TRUE(obs::check_trace_against_report(trace, report(16, 1)).empty());

  // Same totals, wrong split: a bit "moved" between rounds is caught even
  // though comm.bits.agent* and comm.messages still balance.
  const std::vector<std::string> mismatches =
      obs::check_trace_against_report(trace, report(15, 2));
  ASSERT_EQ(mismatches.size(), 2u);
  EXPECT_NE(mismatches[0].find("comm.bits.round1"), std::string::npos);
  EXPECT_NE(mismatches[1].find("comm.bits.round2"), std::string::npos);

  // A report without the per-round counters cannot come from the run
  // that wrote the trace: every missing bucket is named.
  const obs::json::Value aggregates_only = obs::json::parse(
      "{\"trace_truncated\":false,\"counters\":{\"comm.bits.agent0\":16,"
      "\"comm.bits.agent1\":1,\"comm.messages\":3,\"comm.rounds\":3,"
      "\"obs.trace.emitted\":3,\"obs.trace.dropped\":0,"
      "\"obs.trace.open_failed\":0}}");
  const std::vector<std::string> missing =
      obs::check_trace_against_report(trace, aggregates_only);
  ASSERT_EQ(missing.size(), 9u);
  EXPECT_NE(missing[0].find("report lacks counter"), std::string::npos);
  EXPECT_NE(missing[0].find("comm.bits.round1"), std::string::npos);
  EXPECT_NE(missing[8].find("comm.bits.round_overflow"), std::string::npos);
}

// The sink is lossless while open, but a batch racing its close is
// dropped and counted: the ledger (lines + dropped >= emitted) and the
// trace_truncated flag must still account for every event.
TEST(TraceReader, LedgerAccountsForDroppedEvents) {
  const obs::ChannelTrace trace = obs::parse_channel_trace(
      send_line(1, 0, 14, 1, 1, 0, 1) + send_line(1, 1, 1, 2, 2, 1, 1) +
      span_line(1, 0, 1, "run", 0, 5));
  const auto report = [](std::uint64_t emitted, std::uint64_t dropped,
                         bool truncated) {
    return report_with({{"comm.bits.agent0", 14},
                        {"comm.bits.agent1", 1},
                        {"comm.messages", 2},
                        {"comm.rounds", 2},
                        {"comm.bits.round1", 14},
                        {"comm.bits.round2", 1},
                        {"obs.trace.emitted", emitted},
                        {"obs.trace.dropped", dropped}},
                       truncated);
  };
  const auto only_mismatch = [&](const obs::json::Value& doc) {
    const std::vector<std::string> found =
        obs::check_trace_against_report(trace, doc);
    EXPECT_EQ(found.size(), 1u);
    return found.empty() ? std::string() : found.front();
  };

  // 3 lines + 2 dropped == 5 emitted, and the flag says truncated.
  EXPECT_TRUE(
      obs::check_trace_against_report(trace, report(5, 2, true)).empty());
  EXPECT_NE(only_mismatch(report(5, 2, false)).find("trace_truncated"),
            std::string::npos);
  EXPECT_NE(only_mismatch(report(6, 2, true)).find("lost events"),
            std::string::npos);
  EXPECT_NE(only_mismatch(report(1, 2, true)).find("exceeds"),
            std::string::npos);

  // A report without the ledger or the flag cannot vouch for the trace.
  const obs::json::Value no_flag = obs::json::parse(
      "{\"counters\":{\"comm.bits.agent0\":14,\"comm.bits.agent1\":1,"
      "\"comm.messages\":2,\"comm.rounds\":2,\"comm.bits.round1\":14,"
      "\"comm.bits.round2\":1,\"comm.bits.round3\":0,\"comm.bits.round4\":0,"
      "\"comm.bits.round5\":0,\"comm.bits.round6\":0,\"comm.bits.round7\":0,"
      "\"comm.bits.round8\":0,\"comm.bits.round_overflow\":0}}");
  const std::vector<std::string> found =
      obs::check_trace_against_report(trace, no_flag);
  ASSERT_EQ(found.size(), 4u);
  EXPECT_NE(found[0].find("obs.trace.emitted"), std::string::npos);
  EXPECT_NE(found[1].find("obs.trace.dropped"), std::string::npos);
  EXPECT_NE(found[2].find("obs.trace.open_failed"), std::string::npos);
  EXPECT_NE(found[3].find("trace_truncated"), std::string::npos);
}

TEST(TraceReader, RejectsMalformedLine) {
  EXPECT_THROW((void)obs::parse_channel_trace("{not json}\n"),
               util::contract_error);
  EXPECT_THROW((void)obs::parse_channel_trace("[1,2]\n"),
               util::contract_error);
  EXPECT_THROW((void)obs::parse_channel_trace("{\"no_ev\":1}\n"),
               util::contract_error);
  // Missing a required send field.
  EXPECT_THROW(
      (void)obs::parse_channel_trace(without(send_line(1, 0, 1, 1, 1, 0),
                                             "round")),
      util::contract_error);
  // Agent out of range.
  EXPECT_THROW((void)obs::parse_channel_trace(send_line(1, 2, 1, 1, 1, 0)),
               util::contract_error);
  // Integers beyond 2^53 are not what the writer prints, and would
  // overflow the reader's integer fields.
  EXPECT_THROW((void)obs::parse_channel_trace(
                   "{\"ev\":\"send\",\"ch\":1,\"from\":0,\"bits\":1,"
                   "\"round\":1,\"msg\":1,\"span\":0,\"tid\":1,"
                   "\"t_us\":1e300}\n"),
               util::contract_error);
  EXPECT_THROW((void)obs::parse_channel_trace(
                   "{\"ev\":\"span\",\"id\":1e30,\"parent\":0,\"tid\":1,"
                   "\"name\":\"x\",\"t_us\":0,\"dur_us\":1}\n"),
               util::contract_error);
}

TEST(TraceReader, RejectsTruncatedFinalLine) {
  const std::string good = send_line(1, 0, 1, 1, 1, 0);
  EXPECT_NO_THROW((void)obs::parse_channel_trace(good));
  // The same content without the final newline is what a killed writer
  // leaves behind — even though the JSON happens to be complete.
  const std::string truncated = good.substr(0, good.size() - 1);
  EXPECT_THROW((void)obs::parse_channel_trace(truncated),
               util::contract_error);
  // Truncation mid-object is also caught (as malformed JSON or missing
  // newline, either way it throws).
  EXPECT_THROW((void)obs::parse_channel_trace(good.substr(0, 30)),
               util::contract_error);
}

TEST(TraceReader, RejectsMessageSequenceGap) {
  const std::string text =
      send_line(1, 0, 1, 1, 1, 0) + send_line(1, 0, 1, 1, 3, 1);
  EXPECT_THROW((void)obs::parse_channel_trace(text), util::contract_error);
}

TEST(TraceReader, RejectsRoundNumberContradiction) {
  // Speaker alternated but the writer claims the same round.
  const std::string text =
      send_line(1, 0, 1, 1, 1, 0) + send_line(1, 1, 1, 1, 2, 1);
  EXPECT_THROW((void)obs::parse_channel_trace(text), util::contract_error);
}

TEST(TraceReader, EmptyTraceIsValid) {
  const obs::ChannelTrace trace = obs::parse_channel_trace("");
  EXPECT_EQ(trace.send_events, 0u);
  EXPECT_TRUE(trace.channels.empty());
}

// ------------------------------------------------------ streaming reader

TEST(TraceStream, ChunkedFeedMatchesSlurp) {
  const std::string text = send_line(1, 0, 8, 1, 1, 1) +
                           span_line(1, 0, 1, "x", 1, 2) +
                           send_line(1, 1, 1, 2, 2, 3);
  // Worst-case chunking: one byte per feed, so every line is reassembled
  // through the carry buffer.
  obs::TraceStream stream;
  for (const char c : text) stream.feed(std::string_view(&c, 1));
  stream.finish();
  EXPECT_EQ(stream.stats().lines, 3u);
  EXPECT_FALSE(stream.stats().truncated_tail);

  const obs::ChannelTrace whole = obs::parse_channel_trace(text);
  const obs::ChannelTrace chunked = stream.take_trace();
  EXPECT_EQ(chunked.send_events, whole.send_events);
  EXPECT_EQ(chunked.span_events, whole.span_events);
  EXPECT_EQ(chunked.total_bits(), whole.total_bits());
  ASSERT_EQ(chunked.channels.size(), whole.channels.size());
  EXPECT_EQ(chunked.channels[0].rounds.size(), whole.channels[0].rounds.size());
}

TEST(TraceStream, ToleratesTruncatedFinalLineWhenAsked) {
  const std::string good = send_line(1, 0, 4, 1, 1, 0);
  const std::string truncated =
      good + "{\"ev\":\"send\",\"ch\":1,\"from\":0,\"bi";  // writer killed

  obs::TraceReadOptions options;
  options.tolerate_truncated_tail = true;
  obs::TraceStream stream(options);
  stream.feed(truncated);
  stream.finish();
  // The complete line parsed; the torn tail is one tolerated truncation.
  EXPECT_TRUE(stream.stats().truncated_tail);
  EXPECT_EQ(stream.stats().lines, 1u);
  EXPECT_EQ(stream.take_trace().send_events, 1u);

  // Strict mode still throws on the same bytes.
  obs::TraceStream strict;
  strict.feed(truncated);
  EXPECT_THROW(strict.finish(), util::contract_error);
}

// What comm::Channel and ScopedSpan write is the one accepted format: a
// line missing one of their fields, or a message the lossless sink
// could not have skipped, fails at its line number whether or not torn
// tails are tolerated.
TEST(TraceStream, RejectsIncompleteEventsAndGapsEvenWhenToleratingTornTails) {
  const std::string first = send_line(1, 0, 8, 1, 1, 0);
  const std::string second = send_line(1, 1, 1, 2, 2, 1);
  const std::string cases[] = {
      first + without(second, "ch"),
      first + without(second, "span"),
      first + without(second, "tid"),
      first + without(span_line(1, 0, 1, "x", 0, 1), "id"),
      first + send_line(1, 1, 1, 2, 3, 1),  // msg 2 missing
      first + send_line(1, 0, 8, 1, 1, 1),  // msg 1 repeated
  };
  for (const bool tolerate : {false, true}) {
    for (const std::string& text : cases) {
      obs::TraceStream stream(obs::TraceReadOptions{tolerate});
      try {
        stream.feed(text);
        stream.finish();
        ADD_FAILURE() << "accepted: " << text;
      } catch (const util::contract_error& e) {
        EXPECT_NE(std::string(e.what()).find("trace line 2:"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

// ----------------------------------------------------------- span trees

TEST(SpanForest, RebuildsNestedAndSiblingSpans) {
  // Emission order is scope-exit order: children's lines precede the
  // root's.  The forest must still come out parent-first.
  const std::string text = span_line(2, 1, 1, "child_a", 10, 20) +
                           span_line(3, 1, 1, "child_b", 50, 30) +
                           span_line(1, 0, 1, "root", 0, 100);
  const obs::ChannelTrace trace = obs::parse_channel_trace(text);
  ASSERT_EQ(trace.spans.size(), 3u);
  const obs::SpanForest forest = obs::build_span_forest(trace.spans);
  EXPECT_TRUE(forest.problems.empty())
      << (forest.problems.empty() ? "" : forest.problems.front());
  ASSERT_EQ(forest.nodes.size(), 3u);
  ASSERT_EQ(forest.threads.size(), 1u);
  const obs::ThreadSpans& thread = forest.threads[0];
  EXPECT_EQ(thread.tid, 1u);
  EXPECT_EQ(thread.first_us, 0);
  EXPECT_EQ(thread.last_us, 100);
  ASSERT_EQ(thread.roots.size(), 1u);
  const obs::SpanNode& root = forest.nodes[thread.roots[0]];
  EXPECT_EQ(forest.spans[root.span].name, "root");
  EXPECT_EQ(root.depth, 0u);
  // Self time: 100 minus the two children's 20 + 30.
  EXPECT_EQ(root.self_us, 50);
  ASSERT_EQ(root.children.size(), 2u);
  const obs::SpanNode& a = forest.nodes[root.children[0]];
  const obs::SpanNode& b = forest.nodes[root.children[1]];
  EXPECT_EQ(forest.spans[a.span].name, "child_a");  // time order
  EXPECT_EQ(forest.spans[b.span].name, "child_b");
  EXPECT_EQ(a.depth, 1u);
  EXPECT_EQ(a.self_us, 20);
}

TEST(SpanForest, SeparatesThreadsAndRejectsCrossThreadParents) {
  const std::string text = span_line(1, 0, 2, "worker_root", 0, 40) +
                           span_line(2, 0, 1, "main_root", 0, 8) +
                           // Claims a parent living on thread 2.
                           span_line(3, 1, 1, "confused", 10, 5);
  const obs::SpanForest forest =
      obs::build_span_forest(obs::parse_channel_trace(text).spans);
  ASSERT_EQ(forest.threads.size(), 2u);  // ordered by tid
  EXPECT_EQ(forest.threads[0].tid, 1u);
  EXPECT_EQ(forest.threads[1].tid, 2u);
  // The cross-thread child is flagged and reattached as a root of ITS
  // thread, so the forest stays renderable.
  ASSERT_EQ(forest.problems.size(), 1u);
  EXPECT_NE(forest.problems[0].find("on thread"), std::string::npos);
  EXPECT_EQ(forest.threads[0].roots.size(), 2u);
  EXPECT_EQ(forest.threads[1].roots.size(), 1u);
}

TEST(SpanForest, FlagsUnbalancedAndInterleavedSpans) {
  // child leaks 20us past its parent's end; the two roots overlap.
  const std::string text = span_line(2, 1, 1, "leaky", 80, 40) +
                           span_line(1, 0, 1, "short_parent", 0, 100) +
                           span_line(3, 0, 1, "overlapping_root", 90, 50);
  const obs::SpanForest forest =
      obs::build_span_forest(obs::parse_channel_trace(text).spans);
  ASSERT_EQ(forest.problems.size(), 2u);
  EXPECT_NE(forest.problems[0].find("unbalanced"), std::string::npos);
  EXPECT_NE(forest.problems[1].find("interleaved"), std::string::npos);
  // The leaky child still hangs off its parent (structure is preserved;
  // only the accounting is flagged).
  ASSERT_EQ(forest.threads.size(), 1u);
  EXPECT_EQ(forest.threads[0].roots.size(), 2u);
}

TEST(SpanForest, FlagsMissingParentsAndDuplicateIds) {
  const std::string text = span_line(5, 99, 1, "orphan", 0, 10) +
                           span_line(6, 0, 1, "twin", 20, 10) +
                           span_line(6, 0, 1, "twin", 40, 10) +
                           span_line(7, 7, 1, "own_parent", 60, 10);
  const obs::SpanForest forest =
      obs::build_span_forest(obs::parse_channel_trace(text).spans);
  ASSERT_EQ(forest.problems.size(), 3u);
  EXPECT_NE(forest.problems[0].find("missing parent"), std::string::npos);
  EXPECT_NE(forest.problems[1].find("more than once"), std::string::npos);
  EXPECT_NE(forest.problems[2].find("missing parent 7"), std::string::npos);
  // Orphans are reattached as roots; the duplicate is dropped.
  ASSERT_EQ(forest.threads.size(), 1u);
  EXPECT_EQ(forest.threads[0].roots.size(), 3u);
  EXPECT_EQ(forest.nodes.size(), 3u);
}

TEST(SpanForest, RejectsIllTypedSpanLines) {
  // Every field ScopedSpan writes is required: a span without a name or
  // an id must throw, not half-parse.
  EXPECT_THROW((void)obs::parse_channel_trace(
                   "{\"ev\":\"span\",\"id\":1,\"parent\":0,\"tid\":1,"
                   "\"t_us\":0,\"dur_us\":1}\n"),
               util::contract_error);
  EXPECT_THROW((void)obs::parse_channel_trace(
                   "{\"ev\":\"span\",\"name\":\"old\",\"t_us\":1,"
                   "\"dur_us\":2}\n"),
               util::contract_error);
  EXPECT_THROW((void)obs::parse_channel_trace(
                   "{\"ev\":\"span\",\"id\":1,\"parent\":0,\"tid\":1,"
                   "\"name\":\"x\",\"t_us\":0,\"dur_us\":-5}\n"),
               util::contract_error);
  // args must be an object when present.
  EXPECT_THROW((void)obs::parse_channel_trace(
                   "{\"ev\":\"span\",\"id\":1,\"parent\":0,\"tid\":1,"
                   "\"name\":\"x\",\"t_us\":0,\"dur_us\":1,\"args\":[]}\n"),
               util::contract_error);
}

// -------------------------------------------------- Chrome trace export

TEST(ChromeTrace, ExportsSpansAndFlowsAsValidJson) {
  const std::string text = span_line(2, 1, 1, "comm.execute", 5, 40) +
                           send_line(1, 0, 8, 1, 1, 10, 2) +
                           send_line(1, 1, 1, 2, 2, 30, 2) +
                           span_line(1, 0, 1, "cli.run", 0, 60);
  const std::string rendered = chrome_json(text);

  // The export must itself be strict-parser-valid JSON.
  const obs::json::Value doc = obs::json::parse(rendered);
  const obs::json::Value* schema = doc.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string, "ccmx.chrome_trace/1");
  const obs::json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::size_t complete = 0;
  std::size_t metadata = 0;
  std::size_t flow_out = 0;
  std::size_t flow_in = 0;
  for (const obs::json::Value& event : events->array) {
    const obs::json::Value* ph = event.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "X") ++complete;
    if (ph->string == "M") ++metadata;
    if (ph->string == "s") ++flow_out;
    if (ph->string == "f") ++flow_in;
  }
  // 2 span slices + 2 sends x 2 slices (send + recv) = 6 complete events;
  // one flow arrow (s + f) per send.
  EXPECT_EQ(complete, 6u);
  EXPECT_EQ(flow_out, 2u);
  EXPECT_EQ(flow_in, 2u);
  EXPECT_GE(metadata, 4u);  // 2 process names + >= 2 thread names

  // Span nesting survives: both spans land on the same pid/tid with the
  // child's [ts, ts+dur] inside the parent's.
  const obs::json::Value* parent = nullptr;
  const obs::json::Value* child = nullptr;
  for (const obs::json::Value& event : events->array) {
    const obs::json::Value* name = event.find("name");
    if (name == nullptr) continue;
    if (name->string == "cli.run") parent = &event;
    if (name->string == "comm.execute") child = &event;
  }
  ASSERT_NE(parent, nullptr);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(parent->find("tid")->number, child->find("tid")->number);
  EXPECT_LE(parent->find("ts")->number, child->find("ts")->number);
  EXPECT_GE(parent->find("ts")->number + parent->find("dur")->number,
            child->find("ts")->number + child->find("dur")->number);
}

TEST(ChromeTrace, EmptyTraceStillRendersAValidDocument) {
  const obs::json::Value doc = obs::json::parse(chrome_json(""));
  ASSERT_NE(doc.find("traceEvents"), nullptr);
  EXPECT_TRUE(doc.find("traceEvents")->array.empty());
}

TEST(PowerLawFit, RecoversAnExactLaw) {
  std::vector<std::pair<double, double>> xy;
  for (double x : {1.0, 2.0, 4.0, 8.0, 32.0}) {
    xy.emplace_back(x, 3.0 * x * x);  // y = 3 x^2
  }
  const obs::PowerLawFit fit = obs::fit_power_law(xy);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.log2_intercept, std::log2(3.0), 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(PowerLawFit, RejectsDegenerateSamples) {
  EXPECT_THROW((void)obs::fit_power_law({{1.0, 2.0}}), util::contract_error);
  EXPECT_THROW((void)obs::fit_power_law({{1.0, 2.0}, {1.0, 3.0}}),
               util::contract_error);
  EXPECT_THROW((void)obs::fit_power_law({{0.0, 2.0}, {2.0, 3.0}}),
               util::contract_error);
  EXPECT_THROW((void)obs::fit_power_law({{1.0, -2.0}, {2.0, 3.0}}),
               util::contract_error);
}

// The acceptance check behind `ccmx_insight fit --law send-half`: measured
// send-half bits over the E1 grid fit bits ~ (k n^2)^slope with slope
// within 10% of the paper's linear law.
TEST(PowerLawFit, SendHalfBitsTrackKNSquaredWithinTenPercent) {
  util::Xoshiro256 rng(7);
  std::vector<std::pair<double, double>> xy;
  for (const std::size_t n : {2u, 4u, 6u, 8u}) {
    for (const unsigned k : {1u, 2u, 4u, 8u}) {
      const comm::MatrixBitLayout layout(n, n, k);
      const comm::Partition pi = comm::Partition::pi0(layout);
      const comm::BitVec input = layout.encode(random_entries(n, k, rng));
      const comm::ProtocolOutcome outcome = comm::execute(
          proto::make_send_half_singularity(layout), input, pi);
      xy.emplace_back(static_cast<double>(k * n * n),
                      static_cast<double>(outcome.bits));
    }
  }
  const obs::PowerLawFit fit = obs::fit_power_law(xy);
  EXPECT_NEAR(fit.slope, 1.0, 0.10);
  EXPECT_GT(fit.r2, 0.99);
}

}  // namespace
