#include "obs/profile_reader.hpp"

#include <algorithm>
#include <fstream>
#include <set>

#include "obs/json_reader.hpp"
#include "obs/schemas.hpp"
#include "util/narrow.hpp"
#include "util/require.hpp"

namespace ccmx::obs {

namespace {

double num_or(const json::Value& doc, const char* key, double fallback) {
  const json::Value* v = doc.find(key);
  return v != nullptr && v->is_number() ? v->number : fallback;
}

// Numbers outside the integer's range read as the fallback: casting them
// is undefined behaviour, and a JSON number can be any double (1e999 is
// inf).
bool fits_u64(double v) { return v >= 0 && v < 0x1p64; }

std::uint64_t u64_or(const json::Value& doc, const char* key,
                     std::uint64_t fallback) {
  const json::Value* v = doc.find(key);
  if (v == nullptr || !v->is_number() || !fits_u64(v->number)) return fallback;
  return static_cast<std::uint64_t>(v->number);
}

std::int64_t i64_or_zero(const json::Value& doc, const char* key) {
  const double v = num_or(doc, key, 0);
  return v >= -0x1p63 && v < 0x1p63 ? static_cast<std::int64_t>(v) : 0;
}

std::string str_or(const json::Value& doc, const char* key) {
  const json::Value* v = doc.find(key);
  return v != nullptr && v->is_string() ? v->string : std::string();
}

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
    const std::string ev = str_or(doc, "ev");
    if (ev == "meta") {
      const std::string schema = str_or(doc, "schema");
      if (schema != kProfileSchema) {
        data.problems.push_back(path + ": schema is \"" + schema +
                                "\", expected \"" +
                                std::string(kProfileSchema) + "\"");
        return data;
      }
      saw_meta = true;
      data.hz = util::narrow_cast<unsigned>(u64_or(doc, "hz", 0));
      data.mechanism = str_or(doc, "mechanism");
      data.start_us = i64_or_zero(doc, "start_us");
    } else if (ev == "frame") {
      ProfileFrame frame;
      frame.id = u64_or(doc, "id", 0);
      frame.pc = u64_or(doc, "pc", 0);
      frame.sym = str_or(doc, "sym");
      frame.module = str_or(doc, "module");
      frame.off = u64_or(doc, "off", 0);
      const json::Value* symbolized = doc.find("symbolized");
      frame.symbolized = symbolized != nullptr && symbolized->is_bool() &&
                         symbolized->boolean;
      data.frame_index[frame.id] = data.frames.size();
      data.frames.push_back(std::move(frame));
    } else if (ev == "sample") {
      ProfileSample sample;
      sample.tid = util::narrow_cast<std::uint32_t>(u64_or(doc, "tid", 0));
      sample.span = u64_or(doc, "span", 0);
      sample.t_us = i64_or_zero(doc, "t_us");
      if (const json::Value* stack = doc.find("stack");
          stack != nullptr && stack->is_array()) {
        for (const json::Value& f : stack->array) {
          if (f.is_number() && fits_u64(f.number)) {
            sample.stack.push_back(static_cast<std::uint64_t>(f.number));
          }
        }
      }
      data.samples.push_back(std::move(sample));
    } else if (ev == "ledger") {
      data.has_ledger = true;
      data.ledger.captured = u64_or(doc, "captured", 0);
      data.ledger.written = u64_or(doc, "written", 0);
      data.ledger.dropped = u64_or(doc, "dropped", 0);
      data.ledger.truncated = u64_or(doc, "truncated", 0);
      data.ledger.threads = u64_or(doc, "threads", 0);
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
