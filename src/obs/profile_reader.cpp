#include "obs/profile_reader.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>

#include "obs/json_reader.hpp"
#include "obs/schemas.hpp"
#include "util/require.hpp"

namespace ccmx::obs {

namespace {

using json::integer_or;
using json::string_or;

}  // namespace

ProfileData load_profile(const std::string& path) {
  ProfileData data;
  data.path = path;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    data.problems.push_back(path + ": cannot open");
    return data;
  }
  bool saw_meta = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    json::Value doc;
    try {
      doc = json::parse(line);
    } catch (const util::contract_error&) {
      // A torn final line is the signature of a killed process; any
      // other unparseable line is equally just skipped and counted.
      ++data.skipped;
      continue;
    }
    if (!doc.is_object()) {
      ++data.skipped;
      continue;
    }
    const std::string ev = string_or(doc, "ev");
    if (ev == "meta") {
      const std::string schema = string_or(doc, "schema");
      if (schema != kProfileSchema) {
        data.problems.push_back(path + ": schema is \"" + schema +
                                "\", expected \"" +
                                std::string(kProfileSchema) + "\"");
        return data;
      }
      saw_meta = true;
      data.hz = integer_or<unsigned>(doc, "hz", 0);
      data.mechanism = string_or(doc, "mechanism");
      data.start_us = integer_or<std::int64_t>(doc, "start_us", 0);
    } else if (ev == "frame") {
      ProfileFrame frame;
      frame.id = integer_or<std::uint64_t>(doc, "id", 0);
      frame.pc = integer_or<std::uint64_t>(doc, "pc", 0);
      frame.sym = string_or(doc, "sym");
      frame.module = string_or(doc, "module");
      frame.off = integer_or<std::uint64_t>(doc, "off", 0);
      const json::Value* symbolized = doc.find("symbolized");
      frame.symbolized = symbolized != nullptr && symbolized->is_bool() &&
                         symbolized->boolean;
      data.frame_index[frame.id] = data.frames.size();
      data.frames.push_back(std::move(frame));
    } else if (ev == "sample") {
      ProfileSample sample;
      sample.tid = integer_or<std::uint32_t>(doc, "tid", 0);
      sample.span = integer_or<std::uint64_t>(doc, "span", 0);
      sample.t_us = integer_or<std::int64_t>(doc, "t_us", 0);
      if (const json::Value* stack = doc.find("stack");
          stack != nullptr && stack->is_array()) {
        for (const json::Value& f : stack->array) {
          if (const auto id = json::integer<std::uint64_t>(&f)) {
            sample.stack.push_back(*id);
          }
        }
      }
      data.samples.push_back(std::move(sample));
    } else if (ev == "ledger") {
      data.has_ledger = true;
      data.ledger.captured = integer_or<std::uint64_t>(doc, "captured", 0);
      data.ledger.written = integer_or<std::uint64_t>(doc, "written", 0);
      data.ledger.dropped = integer_or<std::uint64_t>(doc, "dropped", 0);
      data.ledger.truncated = integer_or<std::uint64_t>(doc, "truncated", 0);
      data.ledger.threads = integer_or<std::uint64_t>(doc, "threads", 0);
      data.ledger.cpu_ns = integer_or<std::uint64_t>(doc, "cpu_ns", 0);
    } else {
      ++data.skipped;
    }
  }
  if (!saw_meta) {
    data.problems.push_back(path + ": no ccmx.profile meta row");
  }
  if (!data.has_ledger && saw_meta) {
    data.problems.push_back(
        path + ": no ledger row (profiler_stop() never ran?)");
  }
  return data;
}

std::string profile_rate_text(const ProfileData& data) {
  const std::string requested = std::to_string(data.hz) + " Hz";
  if (data.delivered_hz() <= 0.0) return requested;
  char delivered[32];
  std::snprintf(delivered, sizeof delivered, "%.1f", data.delivered_hz());
  return requested + " requested, " + delivered + " Hz delivered";
}

std::string profile_rate_warning(const ProfileData& data) {
  const double delivered = data.delivered_hz();
  if (delivered <= 0.0 || delivered >= 0.8 * data.hz) return "";
  char share[32];
  std::snprintf(share, sizeof share, "%.0f%%", 100.0 * delivered / data.hz);
  return "the timers delivered " + std::string(share) + " of the requested " +
         std::to_string(data.hz) +
         " Hz; divide samples by the delivered rate, not by hz, to read "
         "CPU time";
}

std::vector<ProfileHotspot> profile_hotspots(const ProfileData& data) {
  std::map<std::string, ProfileHotspot> by_sym;
  for (const ProfileSample& sample : data.samples) {
    std::set<std::string> seen;
    for (std::size_t i = 0; i < sample.stack.size(); ++i) {
      const ProfileFrame* frame = data.frame(sample.stack[i]);
      if (frame == nullptr) continue;
      ProfileHotspot& spot = by_sym[frame->sym];
      spot.sym = frame->sym;
      if (i == 0) ++spot.self;
      if (seen.insert(frame->sym).second) ++spot.total;
    }
  }
  std::vector<ProfileHotspot> out;
  out.reserve(by_sym.size());
  for (auto& [sym, spot] : by_sym) out.push_back(std::move(spot));
  std::sort(out.begin(), out.end(),
            [](const ProfileHotspot& a, const ProfileHotspot& b) {
              if (a.self != b.self) return a.self > b.self;
              if (a.total != b.total) return a.total > b.total;
              return a.sym < b.sym;
            });
  return out;
}

std::map<std::string, std::uint64_t> collapsed_stacks(
    const ProfileData& data) {
  std::map<std::string, std::uint64_t> folded;
  for (const ProfileSample& sample : data.samples) {
    if (sample.stack.empty()) continue;
    std::string key;
    // Stacks are stored leaf-first; folded output is root-first.
    for (std::size_t i = sample.stack.size(); i-- > 0;) {
      const ProfileFrame* frame = data.frame(sample.stack[i]);
      if (!key.empty()) key += ';';
      key += frame != nullptr ? frame->sym : std::string("?");
    }
    ++folded[key];
  }
  return folded;
}

double symbolized_sample_fraction(const ProfileData& data) {
  if (data.samples.empty()) return 0.0;
  std::uint64_t attributed = 0;
  for (const ProfileSample& sample : data.samples) {
    for (const std::uint64_t id : sample.stack) {
      const ProfileFrame* frame = data.frame(id);
      if (frame != nullptr && frame->symbolized) {
        ++attributed;
        break;
      }
    }
  }
  return static_cast<double>(attributed) /
         static_cast<double>(data.samples.size());
}

std::map<std::uint64_t, std::uint64_t> samples_by_span(
    const ProfileData& data) {
  std::map<std::uint64_t, std::uint64_t> by_span;
  for (const ProfileSample& sample : data.samples) ++by_span[sample.span];
  return by_span;
}

}  // namespace ccmx::obs
