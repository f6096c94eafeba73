#include "trace/flight_recorder.hpp"

#include "util/env.hpp"
#include "util/timer.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <system_error>

namespace gothic::trace {

namespace {

std::string escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string quoted(const std::string& s) {
  std::string out(1, '"');
  out += escaped(s);
  out += '"';
  return out;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  std::string s = buf;
  if (s.find("inf") != std::string::npos ||
      s.find("nan") != std::string::npos) {
    return "null";
  }
  return s;
}

std::string num(std::uint64_t v) { return std::to_string(v); }

std::string ops_json(const simt::OpCounts& ops) {
  std::string out = "{";
  for (int c = 0; c < static_cast<int>(simt::OpCategory::Count); ++c) {
    const auto cat = static_cast<simt::OpCategory>(c);
    if (c != 0) out += ", ";
    out += "\"";
    out += simt::op_category_name(cat);
    out += "\": " + num(simt::op_category_value(ops, cat));
  }
  return out + "}";
}

std::string launch_json(const runtime::LaunchRecord& r) {
  std::string deps = "[";
  bool first = true;
  for (const std::uint64_t d : r.deps) {
    if (d == 0) continue;
    if (!first) deps += ", ";
    deps += num(d);
    first = false;
  }
  deps += "]";
  return "{\"id\": " + num(r.id) + ", \"kernel\": " +
         quoted(std::string(kernel_name(r.kernel))) +
         ", \"label\": " + quoted(r.label) +
         ", \"stream\": " + quoted(r.stream) + ", \"deps\": " + deps +
         ",\n       \"items\": " +
         num(static_cast<std::uint64_t>(r.items)) +
         ", \"workers\": " + std::to_string(r.workers) +
         ", \"seconds\": " + num(r.seconds) +
         ", \"t_begin\": " + num(r.t_begin) +
         ", \"t_end\": " + num(r.t_end) +
         ",\n       \"ops\": " + ops_json(r.ops) + "}";
}

std::string step_json(const runtime::StepMark& m) {
  return "{\"index\": " + num(m.index) +
         ", \"rebuilt\": " + (m.rebuilt ? "true" : "false") +
         ", \"t_begin\": " + num(m.t_begin) + ", \"t_end\": " + num(m.t_end) +
         ",\n       \"kernel_seconds\": " + num(m.kernel_seconds) +
         ", \"wall_seconds\": " + num(m.wall_seconds) +
         ", \"walk_imbalance\": " + num(m.walk_imbalance) +
         ",\n       \"shards\": " + std::to_string(m.shards) +
         ", \"shard_busy_max\": " + num(m.shard_busy_max) +
         ", \"shard_busy_mean\": " + num(m.shard_busy_mean) +
         ", \"let_cells\": " + num(m.let_cells) +
         ", \"let_bodies\": " + num(m.let_bodies) + "}";
}

} // namespace

std::string FlightRecorder::env_flight_path() {
  return env_string("GOTHIC_FLIGHT", "");
}

bool FlightRecorder::env_enabled() { return !env_flight_path().empty(); }

FlightRecorder::FlightRecorder(std::size_t launch_capacity,
                               std::size_t step_capacity)
    : ring_(launch_capacity == 0 ? 1 : launch_capacity),
      steps_(step_capacity == 0 ? 1 : step_capacity),
      dump_path_(env_flight_path()) {}

void FlightRecorder::record_only(const runtime::LaunchRecord& rec) {
  runtime::LaunchRecord& slot = ring_[seen_records_ % ring_.size()];
  slot = rec;
  slot.label = intern(slot.label);
  slot.stream = intern(slot.stream);
  ++seen_records_;
}

void FlightRecorder::on_record(const runtime::LaunchRecord& rec) {
  record_only(rec);
  if (next_ != nullptr) next_->on_record(rec);
}

void FlightRecorder::on_step(const runtime::StepMark& mark) {
  steps_[seen_steps_ % steps_.size()] = mark;
  ++seen_steps_;
  if (next_ != nullptr) next_->on_step(mark);
}

const char* FlightRecorder::intern(const char* s) {
  if (s == nullptr) return "";
  for (const std::string& owned : names_) {
    if (owned == s) return owned.c_str();
  }
  names_.emplace_back(s);
  return names_.back().c_str();
}

void FlightRecorder::write(std::ostream& os, const std::string& reason) const {
  std::string launches;
  const std::uint64_t cap = ring_.size();
  const std::uint64_t held = seen_records_ < cap ? seen_records_ : cap;
  for (std::uint64_t i = 0; i < held; ++i) {
    // Oldest-first: the ring cursor points at the slot the *next* record
    // would take, which is the oldest one held once the ring wrapped.
    const std::uint64_t slot = (seen_records_ - held + i) % cap;
    if (!launches.empty()) launches += ",\n      ";
    launches += launch_json(ring_[slot]);
  }
  std::string marks;
  const std::uint64_t scap = steps_.size();
  const std::uint64_t sheld = seen_steps_ < scap ? seen_steps_ : scap;
  for (std::uint64_t i = 0; i < sheld; ++i) {
    const std::uint64_t slot = (seen_steps_ - sheld + i) % scap;
    if (!marks.empty()) marks += ",\n      ";
    marks += step_json(steps_[slot]);
  }
  os << "{\n  \"flight_recorder\": {\n    \"v\": 1,\n    \"reason\": "
     << quoted(reason) << ",\n    \"seen_records\": " << seen_records_
     << ",\n    \"seen_steps\": " << seen_steps_
     << ",\n    \"launch_capacity\": " << ring_.size()
     << ",\n    \"step_capacity\": " << steps_.size()
     << ",\n    \"launches\": [\n      " << launches
     << "\n    ],\n    \"steps\": [\n      " << marks << "\n    ]\n  }\n}\n";
}

std::string FlightRecorder::resolve_dump_path(const std::string& path) const {
  if (path == "-" || path == "stderr") return "stderr";
  const std::size_t slash = path.find_last_of('/');
  std::size_t dot = path.find_last_of('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    dot = path.size();
  }
  const std::string ext = path.substr(dot);
  std::string base = path.substr(0, dot);
  if (!dump_tag_.empty()) base += "." + dump_tag_;
  std::string candidate = base + ext;
  std::error_code ec;
  for (int n = 1; std::filesystem::exists(candidate, ec); ++n) {
    candidate = base + "." + std::to_string(n) + ext;
  }
  return candidate;
}

bool FlightRecorder::dump_to(const std::string& path,
                             const std::string& reason) const {
  if (path == "-" || path == "stderr") {
    write(std::cerr, reason);
    last_dump_path_ = "stderr";
    return true;
  }
  // Serialize resolve + create: two recorders faulting at the same moment
  // (two sessions of a device pool) must not pick the same candidate.
  // Incident dumps are cold error paths, so one process-wide lock is fine.
  static std::mutex dump_mutex;
  const std::lock_guard<std::mutex> lock(dump_mutex);
  const std::string dest = resolve_dump_path(path);
  std::ofstream os(dest);
  if (os) write(os, reason);
  if (!os) {
    std::fprintf(stderr,
                 "gothic: error: could not write flight-recorder dump %s\n",
                 dest.c_str());
    return false;
  }
  last_dump_path_ = dest;
  return true;
}

bool FlightRecorder::dump(const std::string& reason) const {
  if (dump_path_.empty()) return true;
  return dump_to(dump_path_, reason);
}

} // namespace gothic::trace
