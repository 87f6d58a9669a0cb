#include "obs/trace_reader.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>

#include "obs/schemas.hpp"
#include "util/narrow.hpp"
#include "util/require.hpp"

namespace ccmx::obs {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& why) {
  throw util::contract_error("trace line " + std::to_string(line_no) + ": " +
                             why);
}

/// 2^53: the writer prints integers, and a JSON number (a double) holds
/// every integer up to here exactly.  The bound also keeps the casts
/// below and the span arithmetic (t_us + dur_us) free of overflow.
constexpr double kMaxInteger = 9007199254740992.0;

/// The integer field `key` of a `kind` event, which must lie in
/// [min, 2^53].
double integer_field(const json::Value& obj, std::string_view key,
                     std::size_t line_no, std::string_view kind,
                     double min) {
  const json::Value* v = obj.find(key);
  if (v == nullptr || !v->is_number()) {
    fail(line_no, std::string(kind) + " event missing numeric \"" +
                      std::string(key) + '"');
  }
  if (!(v->number >= min && v->number <= kMaxInteger) ||
      v->number != std::floor(v->number)) {
    fail(line_no, "field \"" + std::string(key) + "\" is not " +
                      (min < 0.0 ? "an" : "a non-negative") +
                      " integer within 2^53");
  }
  return v->number;
}

std::uint64_t uint_field(const json::Value& obj, std::string_view key,
                         std::size_t line_no,
                         std::string_view kind = "send") {
  return static_cast<std::uint64_t>(
      integer_field(obj, key, line_no, kind, 0.0));
}

std::int64_t int_field(const json::Value& obj, std::string_view key,
                       std::size_t line_no, std::string_view kind) {
  return static_cast<std::int64_t>(
      integer_field(obj, key, line_no, kind, -kMaxInteger));
}

/// Stringifies a span "args" member the way the dashboard and Chrome
/// export want to display it (integers without a trailing ".0").
std::string stringify_arg(const json::Value& v) {
  switch (v.kind) {
    case json::Value::Kind::kString:
      return v.string;
    case json::Value::Kind::kBool:
      return v.boolean ? "true" : "false";
    case json::Value::Kind::kNumber: {
      if (v.number == std::floor(v.number) &&
          std::abs(v.number) < 9.0e15) {
        return std::to_string(static_cast<std::int64_t>(v.number));
      }
      std::ostringstream os;
      os << v.number;
      return os.str();
    }
    default:
      return "<non-scalar>";
  }
}

/// Parses one {"ev":"span",...} line.
SpanEvent parse_span_event(const json::Value& obj, std::size_t line_no) {
  SpanEvent span;
  const json::Value* name = obj.find("name");
  if (name == nullptr || !name->is_string()) {
    fail(line_no, "span event missing string \"name\"");
  }
  span.name = name->string;
  span.t_us = int_field(obj, "t_us", line_no, "span");
  span.dur_us = int_field(obj, "dur_us", line_no, "span");
  if (span.dur_us < 0) fail(line_no, "span event has negative \"dur_us\"");
  span.id = uint_field(obj, "id", line_no, "span");
  if (span.id == 0) fail(line_no, "span event has id 0 (reserved)");
  span.parent = uint_field(obj, "parent", line_no, "span");
  span.tid = uint_field(obj, "tid", line_no, "span");
  if (const json::Value* args = obj.find("args")) {
    if (!args->is_object()) fail(line_no, "span \"args\" is not an object");
    for (const auto& [key, value] : args->object) {
      span.args.emplace_back(key, stringify_arg(value));
    }
  }
  return span;
}

}  // namespace

std::uint64_t ChannelTrace::total_rounds() const noexcept {
  std::uint64_t total = 0;
  for (const ChannelStats& ch : channels) total += ch.rounds.size();
  return total;
}

TraceStream::TraceStream(TraceReadOptions options) : options_(options) {}

void TraceStream::feed(std::string_view chunk) {
  CCMX_REQUIRE(!finished_, "TraceStream::feed after finish");
  std::size_t pos = 0;
  while (pos < chunk.size()) {
    const std::size_t eol = chunk.find('\n', pos);
    if (eol == std::string_view::npos) {
      carry_.append(chunk.substr(pos));  // line continues in the next feed
      return;
    }
    ++line_no_;
    if (carry_.empty()) {
      parse_line(chunk.substr(pos, eol - pos));
    } else {
      carry_.append(chunk.substr(pos, eol - pos));
      parse_line(carry_);
      carry_.clear();
    }
    pos = eol + 1;
  }
}

void TraceStream::finish() {
  if (finished_) return;
  finished_ = true;
  if (carry_.empty()) return;
  // A line without its newline is the signature of a killed writer.
  if (!options_.tolerate_truncated_tail) {
    fail(line_no_ + 1,
         "truncated trace: final line is not newline-terminated");
  }
  stats_.truncated_tail = true;  // one tolerated truncation, line dropped
  carry_.clear();
}

void TraceStream::consume_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CCMX_REQUIRE(in.is_open(), "cannot open trace file: " + path);
  std::string chunk(std::size_t{256} * 1024, '\0');
  for (;;) {
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    const std::size_t got = static_cast<std::size_t>(in.gcount());
    if (got == 0) break;
    feed(std::string_view(chunk.data(), got));
  }
  finish();
}

void TraceStream::parse_line(std::string_view line) {
  if (line.empty()) return;
  ++stats_.lines;
  json::Value obj;
  try {
    obj = json::parse(line);
  } catch (const util::contract_error& e) {
    fail(line_no_, std::string("malformed JSON: ") + e.what());
  }
  if (!obj.is_object()) fail(line_no_, "event is not a JSON object");
  const json::Value* ev = obj.find("ev");
  if (ev == nullptr || !ev->is_string()) {
    fail(line_no_, "event missing string \"ev\"");
  }
  if (ev->string == "span") {
    SpanEvent span = parse_span_event(obj, line_no_);
    if (on_span) on_span(span);
    ++trace_.span_events;
    trace_.spans.push_back(std::move(span));
    return;
  }
  if (ev->string != "send") {
    // Future event kinds are valid JSONL but not modeled; count and
    // move on.
    ++trace_.other_events;
    return;
  }
  handle_send(obj);
}

void TraceStream::handle_send(const json::Value& obj) {
  const std::size_t line_no = line_no_;
  SendEvent send;
  send.channel = uint_field(obj, "ch", line_no);
  const std::uint64_t from = uint_field(obj, "from", line_no);
  if (from > 1) fail(line_no, "agent out of range (must be 0 or 1)");
  send.from = util::narrow_cast<unsigned>(from);
  send.bits = uint_field(obj, "bits", line_no);
  send.round = uint_field(obj, "round", line_no);
  send.msg = uint_field(obj, "msg", line_no);
  send.span = uint_field(obj, "span", line_no);
  send.tid = uint_field(obj, "tid", line_no);
  send.t_us = int_field(obj, "t_us", line_no, "send");
  if (on_send) on_send(send);

  const auto [it, fresh] =
      channels_.try_emplace(send.channel, trace_.channels.size());
  if (fresh) {
    trace_.channels.emplace_back();
    trace_.channels.back().id = send.channel;
  }
  ChannelStats& ch = trace_.channels[it->second];

  // Per-channel message numbers are assigned 1, 2, 3, ... by the writer
  // and the sink loses nothing, so any jump means a damaged file.
  const std::uint64_t expect_msg =
      ch.agents[0].messages + ch.agents[1].messages + 1;
  if (send.msg != expect_msg) {
    fail(line_no, "message sequence gap on channel " +
                      std::to_string(send.channel) + ": expected msg " +
                      std::to_string(expect_msg) + ", got " +
                      std::to_string(send.msg));
  }

  // Reconstruct the round from speaker alternation and cross-check the
  // writer's own round number.
  const bool new_round =
      ch.rounds.empty() || ch.rounds.back().speaker != send.from;
  const std::uint64_t expect_round = ch.rounds.size() + (new_round ? 1 : 0);
  if (send.round != expect_round) {
    fail(line_no, "round number mismatch on channel " +
                      std::to_string(send.channel) + ": recorded " +
                      std::to_string(send.round) + ", reconstructed " +
                      std::to_string(expect_round));
  }
  if (new_round) {
    RoundStats round;
    round.round = expect_round;
    round.speaker = send.from;
    ch.rounds.push_back(round);
  }
  ch.rounds.back().bits += send.bits;
  ch.rounds.back().messages += 1;
  ch.agents[send.from].bits += send.bits;
  ch.agents[send.from].messages += 1;
  trace_.agents[send.from].bits += send.bits;
  trace_.agents[send.from].messages += 1;
  ++trace_.send_events;
}

ChannelTrace parse_channel_trace(std::string_view text) {
  TraceStream stream;
  stream.feed(text);
  stream.finish();
  return stream.take_trace();
}

ChannelTrace read_channel_trace_file(const std::string& path) {
  TraceStream stream;
  stream.consume_file(path);
  return stream.take_trace();
}

std::vector<std::string> check_trace_against_report(
    const ChannelTrace& trace, const json::Value& report_doc) {
  std::vector<std::string> mismatches;
  const json::Value* counters = report_doc.find("counters");
  if (counters == nullptr || !counters->is_object()) {
    mismatches.emplace_back("report has no counters object");
    return mismatches;
  }
  // Reported value of counter `name`, or nullopt (with a mismatch noted)
  // when the report lacks it.
  const auto counter = [&](std::string_view name) -> std::optional<double> {
    const json::Value* v = counters->find(name);
    if (v == nullptr || !v->is_number()) {
      mismatches.push_back("report lacks counter \"" + std::string(name) +
                           "\" (untraced run?)");
      return std::nullopt;
    }
    return v->number;
  };
  const auto check = [&](std::string_view name, std::uint64_t reconstructed) {
    const std::optional<double> reported = counter(name);
    if (reported && *reported != static_cast<double>(reconstructed)) {
      std::ostringstream os;
      os << name << ": report says " << *reported << ", trace reconstructs "
         << reconstructed;
      mismatches.push_back(os.str());
    }
  };
  check("comm.bits.agent0", trace.agents[0].bits);
  check("comm.bits.agent1", trace.agents[1].bits);
  check("comm.messages", trace.agents[0].messages + trace.agents[1].messages);
  check("comm.rounds", trace.total_rounds());

  // Per-round bit conservation: the channel layer keeps dedicated
  // counters for rounds 1..8 plus an overflow bucket (see channel.cpp);
  // reconstruct the same partition from the trace and compare.
  constexpr std::uint64_t kRoundCounters = 8;
  std::uint64_t by_round[kRoundCounters] = {};
  std::uint64_t overflow = 0;
  for (const ChannelStats& ch : trace.channels) {
    for (const RoundStats& r : ch.rounds) {
      if (r.round >= 1 && r.round <= kRoundCounters) {
        by_round[r.round - 1] += r.bits;
      } else {
        overflow += r.bits;
      }
    }
  }
  for (std::uint64_t i = 0; i < kRoundCounters; ++i) {
    check("comm.bits.round" + std::to_string(i + 1), by_round[i]);
  }
  check("comm.bits.round_overflow", overflow);

  // Event conservation for the async pipeline: every emitted event must
  // either reach the file or be accounted as a drop, so at a quiescent
  // point  lines-in-file + obs.trace.dropped >= obs.trace.emitted.  The
  // checks are one-sided because a parsed trace may legitimately hold
  // MORE events than one report's counters (append-mode files span
  // several runs, and counter resets do not truncate the file).
  const std::optional<double> emitted = counter("obs.trace.emitted");
  const std::optional<double> dropped = counter("obs.trace.dropped");
  const std::optional<double> open_failed = counter("obs.trace.open_failed");
  if (emitted && dropped) {
    if (*dropped > *emitted) {
      std::ostringstream os;
      os << "obs.trace.dropped (" << *dropped
         << ") exceeds obs.trace.emitted (" << *emitted << ')';
      mismatches.push_back(os.str());
    }
    const std::uint64_t total_events =
        trace.send_events + trace.span_events + trace.other_events;
    // total_events == 0 means the caller checked a hand-built subset (or
    // an empty trace) against a real report; stay quiet.
    if (total_events > 0 &&
        static_cast<double>(total_events) + *dropped < *emitted) {
      std::ostringstream os;
      os << "trace file lost events: " << total_events << " parsed + "
         << *dropped << " dropped < " << *emitted << " emitted";
      mismatches.push_back(os.str());
    }
  }
  const json::Value* trunc = report_doc.find("trace_truncated");
  if (trunc == nullptr || !trunc->is_bool()) {
    mismatches.emplace_back("report lacks bool \"trace_truncated\"");
  } else if (dropped && open_failed) {
    const bool losses = *dropped > 0.0 || *open_failed > 0.0;
    if (trunc->boolean != losses) {
      std::ostringstream os;
      os << "trace_truncated flag is " << (trunc->boolean ? "true" : "false")
         << " but counters say " << *dropped << " dropped / " << *open_failed
         << " open failures";
      mismatches.push_back(os.str());
    }
  }
  return mismatches;
}

SpanForest build_span_forest(const std::vector<SpanEvent>& spans) {
  SpanForest forest;
  forest.spans = spans;
  // Start-time order with id as the tie-break: ids are handed out at
  // construction, so a parent always sorts before its children even when
  // the clock cannot separate them.
  std::sort(forest.spans.begin(), forest.spans.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              return a.t_us != b.t_us ? a.t_us < b.t_us : a.id < b.id;
            });

  std::map<std::uint64_t, std::size_t> node_of_id;  // span id -> node index
  std::map<std::uint64_t, std::size_t> thread_of_tid;
  const auto thread_index = [&](std::uint64_t tid) {
    const auto [it, fresh] =
        thread_of_tid.try_emplace(tid, forest.threads.size());
    if (fresh) {
      forest.threads.emplace_back();
      forest.threads.back().tid = tid;
    }
    return it->second;
  };

  for (std::size_t i = 0; i < forest.spans.size(); ++i) {
    const SpanEvent& span = forest.spans[i];
    SpanNode node;
    node.span = i;
    node.self_us = span.dur_us;

    if (node_of_id.contains(span.id)) {
      forest.problems.push_back("span id " + std::to_string(span.id) + " (\"" +
                                span.name + "\") appears more than once");
      continue;
    }

    std::size_t parent_node = forest.nodes.size();  // sentinel: no parent
    if (span.parent != 0) {
      const auto parent_it = node_of_id.find(span.parent);
      if (parent_it == node_of_id.end()) {
        forest.problems.push_back(
            "span " + std::to_string(span.id) + " (\"" + span.name +
            "\") references missing parent " + std::to_string(span.parent) +
            "; reattached as a root");
      } else {
        const SpanNode& parent = forest.nodes[parent_it->second];
        const SpanEvent& parent_span = forest.spans[parent.span];
        if (parent_span.tid != span.tid) {
          forest.problems.push_back(
              "span " + std::to_string(span.id) + " (\"" + span.name +
              "\") on thread " + std::to_string(span.tid) +
              " claims parent " + std::to_string(span.parent) +
              " on thread " + std::to_string(parent_span.tid) +
              "; reattached as a root");
        } else {
          parent_node = parent_it->second;
          if (span.t_us < parent_span.t_us ||
              span.end_us() > parent_span.end_us()) {
            forest.problems.push_back(
                "unbalanced span " + std::to_string(span.id) + " (\"" +
                span.name + "\"): [" + std::to_string(span.t_us) + ", " +
                std::to_string(span.end_us()) +
                "] leaks outside its parent's [" +
                std::to_string(parent_span.t_us) + ", " +
                std::to_string(parent_span.end_us()) + "]");
          }
        }
      }
    }

    if (parent_node < forest.nodes.size()) {
      SpanNode& parent = forest.nodes[parent_node];
      node.depth = parent.depth + 1;
      parent.children.push_back(forest.nodes.size());
      parent.self_us -= span.dur_us;
    } else {
      ThreadSpans& thread = forest.threads[thread_index(span.tid)];
      if (thread.roots.empty()) {
        thread.first_us = span.t_us;
        thread.last_us = span.end_us();
      } else {
        thread.first_us = std::min(thread.first_us, span.t_us);
        thread.last_us = std::max(thread.last_us, span.end_us());
      }
      thread.roots.push_back(forest.nodes.size());
    }
    // Registered only now, so a span naming itself as parent reads as
    // a missing parent rather than as a node that does not exist yet.
    node_of_id.emplace(span.id, forest.nodes.size());
    forest.nodes.push_back(std::move(node));
  }

  // Same-parent siblings (and same-thread roots) must not overlap: the
  // writer's spans are scoped, so overlap means interleaved lifetimes
  // (e.g. spans moved across scopes by hand).
  const auto check_siblings = [&](const std::vector<std::size_t>& siblings) {
    for (std::size_t i = 1; i < siblings.size(); ++i) {
      const SpanEvent& prev = forest.spans[forest.nodes[siblings[i - 1]].span];
      const SpanEvent& next = forest.spans[forest.nodes[siblings[i]].span];
      if (prev.end_us() > next.t_us) {
        forest.problems.push_back(
            "interleaved spans " + std::to_string(prev.id) + " (\"" +
            prev.name + "\", ends " + std::to_string(prev.end_us()) +
            ") and " + std::to_string(next.id) + " (\"" + next.name +
            "\", starts " + std::to_string(next.t_us) + ")");
      }
    }
  };
  for (const SpanNode& node : forest.nodes) check_siblings(node.children);
  for (const ThreadSpans& thread : forest.threads) {
    check_siblings(thread.roots);
  }

  std::sort(forest.threads.begin(), forest.threads.end(),
            [](const ThreadSpans& a, const ThreadSpans& b) {
              return a.tid < b.tid;
            });
  return forest;
}

namespace {

// Track naming: pid 1 carries the span trees (one track per writer
// thread), pid 2 the channel traffic (one track per agent).
constexpr std::int64_t kSpanPid = 1;
constexpr std::int64_t kChannelPid = 2;

}  // namespace

ChromeTraceWriter::ChromeTraceWriter(std::ostream& os) : os_(&os), w_(os) {
  w_.begin_object();
  w_.key("schema").value(kChromeTraceSchema);
  w_.key("displayTimeUnit").value("ms");
  w_.key("traceEvents").begin_array();
}

void ChromeTraceWriter::add_span(const SpanEvent& span) {
  span_tids_.push_back(span.tid);
  w_.begin_object();
  w_.key("ph").value("X");
  w_.key("pid").value(kSpanPid);
  w_.key("tid").value(span.tid);
  w_.key("name").value(span.name);
  w_.key("cat").value("span");
  w_.key("ts").value(span.t_us);
  w_.key("dur").value(span.dur_us);
  w_.key("args").begin_object();
  w_.key("span_id").value(span.id);
  w_.key("parent").value(span.parent);
  for (const auto& [key, value] : span.args) {
    w_.key(key).value(value);
  }
  w_.end_object();
  w_.end_object();
}

void ChromeTraceWriter::add_send(const SendEvent& send) {
  // Each send becomes a 1us slice on the sender's track, a matching
  // slice on the receiver's, and a flow arrow binding the two — the
  // Perfetto rendering of "this message crossed the channel".
  any_send_ = true;
  ++flow_id_;
  const std::string label = "ch" + std::to_string(send.channel) + " r" +
                            std::to_string(send.round) + " " +
                            std::to_string(send.bits) + "b";
  const auto slice = [&](std::int64_t tid, std::string_view name) {
    w_.begin_object();
    w_.key("ph").value("X");
    w_.key("pid").value(kChannelPid);
    w_.key("tid").value(tid);
    w_.key("name").value(name);
    w_.key("cat").value("send");
    w_.key("ts").value(send.t_us);
    w_.key("dur").value(std::int64_t{1});
    w_.key("args").begin_object();
    w_.key("bits").value(send.bits);
    w_.key("channel").value(send.channel);
    w_.key("round").value(send.round);
    w_.key("msg").value(send.msg);
    if (send.span != 0) w_.key("span_id").value(send.span);
    w_.end_object();
    w_.end_object();
  };
  slice(send.from, label);
  slice(1 - static_cast<std::int64_t>(send.from), "recv " + label);
  const auto flow = [&](std::string_view ph, std::int64_t tid) {
    w_.begin_object();
    w_.key("ph").value(ph);
    w_.key("pid").value(kChannelPid);
    w_.key("tid").value(tid);
    w_.key("name").value("msg");
    w_.key("cat").value("send");
    w_.key("id").value(flow_id_);
    w_.key("ts").value(send.t_us);
    if (ph == "f") w_.key("bp").value("e");
    w_.end_object();
  };
  flow("s", send.from);
  flow("f", 1 - static_cast<std::int64_t>(send.from));
}

void ChromeTraceWriter::finish() {
  CCMX_REQUIRE(!finished_, "ChromeTraceWriter::finish called twice");
  finished_ = true;
  const auto metadata = [&](std::int64_t pid, std::int64_t tid,
                            std::string_view what, std::string_view name) {
    w_.begin_object();
    w_.key("ph").value("M");
    w_.key("pid").value(pid);
    w_.key("tid").value(tid);
    w_.key("name").value(what);
    w_.key("args").begin_object().key("name").value(name).end_object();
    w_.end_object();
  };
  // Name only the tracks that carried events, so an empty trace renders
  // an empty (but valid) traceEvents array.
  if (!span_tids_.empty()) {
    metadata(kSpanPid, 0, "process_name", "ccmx spans");
  }
  if (any_send_) {
    metadata(kChannelPid, 0, "process_name", "ccmx channel");
    metadata(kChannelPid, 0, "thread_name", "agent0");
    metadata(kChannelPid, 1, "thread_name", "agent1");
  }
  std::sort(span_tids_.begin(), span_tids_.end());
  span_tids_.erase(std::unique(span_tids_.begin(), span_tids_.end()),
                   span_tids_.end());
  for (const std::uint64_t tid : span_tids_) {
    metadata(kSpanPid, static_cast<std::int64_t>(tid), "thread_name",
             "thread " + std::to_string(tid));
  }
  w_.end_array();
  w_.end_object();
  *os_ << '\n';
}

PowerLawFit fit_power_law(const std::vector<std::pair<double, double>>& xy) {
  CCMX_REQUIRE(xy.size() >= 2, "power-law fit needs at least two points");
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (const auto& [x, y] : xy) {
    CCMX_REQUIRE(x > 0.0 && y > 0.0,
                 "power-law fit needs strictly positive samples");
    const double lx = std::log2(x);
    const double ly = std::log2(y);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
    syy += ly * ly;
  }
  const double n = static_cast<double>(xy.size());
  const double var_x = sxx - sx * sx / n;
  CCMX_REQUIRE(var_x > 1e-12, "power-law fit needs at least two distinct x");
  const double cov = sxy - sx * sy / n;
  const double var_y = syy - sy * sy / n;

  PowerLawFit fit;
  fit.points = xy.size();
  fit.slope = cov / var_x;
  fit.log2_intercept = (sy - fit.slope * sx) / n;
  fit.r2 = var_y <= 1e-12 ? 1.0 : (cov * cov) / (var_x * var_y);
  return fit;
}

namespace {

double ts_number(const json::Value& obj, std::string_view key) {
  const json::Value* v = obj.find(key);
  return v != nullptr && v->is_number() ? v->number : 0.0;
}

// Numbers outside the integer's range read as 0: casting them is
// undefined behaviour, and a JSON number can be any double (1e999 is inf).
std::uint64_t ts_u64(double v) {
  return v > 0.0 && v < 0x1p64 ? static_cast<std::uint64_t>(v) : 0;
}

std::uint64_t ts_u64(const json::Value& obj, std::string_view key) {
  return ts_u64(ts_number(obj, key));
}

std::int64_t ts_i64(const json::Value& obj, std::string_view key) {
  const double v = ts_number(obj, key);
  return v >= -0x1p63 && v < 0x1p63 ? static_cast<std::int64_t>(v) : 0;
}

}  // namespace

TimeseriesResult load_timeseries(const std::string& path) {
  TimeseriesResult result;
  result.path = path;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    result.problems.push_back(path + ": cannot open");
    return result;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    json::Value doc;
    try {
      doc = json::parse(line);
    } catch (const util::contract_error&) {
      // A torn final line is the signature of a killed sampler; any
      // other unparseable line is equally just skipped and counted.
      ++result.skipped;
      continue;
    }
    const json::Value* schema = doc.find("schema");
    if (schema == nullptr || !schema->is_string() ||
        schema->string != kTimeseriesSchema) {
      ++result.skipped;
      continue;
    }
    TimeseriesRow row;
    row.seq = ts_u64(doc, "seq");
    row.t_us = ts_i64(doc, "t_us");
    row.dt_us = ts_i64(doc, "dt_us");
    row.rss_bytes = ts_i64(doc, "rss_bytes");
    row.utime_s = ts_number(doc, "utime_s");
    row.stime_s = ts_number(doc, "stime_s");
    row.minor_faults = ts_u64(doc, "minor_faults");
    row.major_faults = ts_u64(doc, "major_faults");
    if (const json::Value* counters = doc.find("counters");
        counters != nullptr && counters->is_object()) {
      for (const auto& [name, value] : counters->object) {
        const std::uint64_t n = value.is_number() ? ts_u64(value.number) : 0;
        if (n > 0) row.counters.emplace_back(name, n);
      }
    }
    if (const json::Value* hw = doc.find("hw");
        hw != nullptr && hw->is_object()) {
      const json::Value* avail = hw->find("available");
      row.hw_available =
          avail != nullptr && avail->is_bool() && avail->boolean;
      if (row.hw_available) {
        row.instructions = ts_u64(*hw, "instructions");
        row.cycles = ts_u64(*hw, "cycles");
        row.ipc = ts_number(*hw, "ipc");
        row.cache_miss_rate = ts_number(*hw, "cache_miss_rate");
        row.task_clock_ns = ts_u64(*hw, "task_clock_ns");
      }
    }
    if (!result.rows.empty() && row.t_us < result.rows.back().t_us) {
      result.problems.push_back(
          path + ": rows out of order at seq " + std::to_string(row.seq));
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

}  // namespace ccmx::obs
