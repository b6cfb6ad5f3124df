#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <thread>

#include "obs/obs.hpp"

namespace perfbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The kB value of `field` in /proc/self/status, times 1024.
uint64_t status_bytes(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(field + ":", 0) == 0) {
      std::istringstream fields(line.substr(field.size() + 1));
      uint64_t kb = 0;
      fields >> kb;
      return kb * 1024;
    }
  return 0;
}

}  // namespace

void Report::add(std::string name, double value, std::string unit, uint64_t n,
                 std::string note) {
  metrics_.push_back(
      {std::move(name), value, std::move(unit), n, std::move(note)});
}

void Report::add_quantile(std::string name, const Quantile& q,
                          std::string unit, double scale, const char* which) {
  std::ostringstream note;
  note << which << " of n=" << q.n << ", " << q.beyond << " beyond";
  if (!q.ok()) note << " (fewer than " << kMinBeyond << " beyond)";
  add(std::move(name), q.value * scale, std::move(unit), q.n, note.str());
}

void Report::set_context(std::string key, std::string value) {
  for (auto& [k, v] : context_)
    if (k == key) {
      v = std::move(value);
      return;
    }
  context_.emplace_back(std::move(key), std::move(value));
}

void Report::fail(const std::string& what) {
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(what);
}

void Report::print(std::ostream& out) const {
  out << "context:\n";
  for (const auto& [k, v] : context_) out << "  " << k << ": " << v << "\n";
  out << "metrics:\n";
  for (const Metric& m : metrics_)
    out << "  " << std::left << std::setw(36) << m.name << std::right
        << std::setw(16) << std::setprecision(6) << m.value << " "
        << std::left << std::setw(6) << m.unit << std::right
        << "  n=" << m.n << (m.note.empty() ? "" : "  " + m.note) << "\n";
  out << "error_share: " << error_share(failed_, attempted_) << " ("
      << failed_ << " failed of " << attempted_ << " attempted)\n";
  for (const std::string& f : failures_) out << "  failure: " << f << "\n";
}

void Report::write_json(std::ostream& out) const {
  out << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"context\": {";
  for (std::size_t i = 0; i < context_.size(); ++i)
    out << (i ? ", " : "") << json_string(context_[i].first) << ": "
        << json_string(context_[i].second);
  out << "}, \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out << (i ? ", " : "") << json_string(m.name)
        << ": {\"value\": " << json_number(m.value)
        << ", \"unit\": " << json_string(m.unit) << ", \"n\": " << m.n
        << ", \"note\": " << json_string(m.note) << "}";
  }
  out << "}}\n";
}

uint64_t peak_rss_bytes() { return status_bytes("VmHWM"); }

uint64_t current_rss_bytes() { return status_bytes("VmRSS"); }

uint64_t cache_bytes(int level) {
  for (int index = 0; index < 8; ++index) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" +
                            std::to_string(index) + "/";
    std::ifstream level_file(dir + "level");
    std::ifstream type_file(dir + "type");
    int found = 0;
    std::string type;
    if (!(level_file >> found) || !(type_file >> type)) continue;
    if (found != level || type == "Instruction") continue;
    // The size reads like "2048K".
    std::ifstream size_file(dir + "size");
    uint64_t size = 0;
    char unit = 'K';
    if (!(size_file >> size)) return 0;
    size_file >> unit;
    const int shift = unit == 'G' ? 30 : unit == 'M' ? 20 : 10;
    return size << shift;
  }
  return 0;
}

void add_common_context(Report& report, const Options& opt) {
  report.set_context("workload", opt.workload);
  report.set_context("seed", std::to_string(opt.seed));
  report.set_context("seconds", json_number(opt.seconds));
  report.set_context("trace", opt.trace ? "1" : "0");
  report.set_context("commit", opt.commit);
  report.set_context("nproc",
                     std::to_string(std::thread::hardware_concurrency()));
  report.set_context("l2_bytes_per_core", std::to_string(cache_bytes(2)));
  report.set_context("l3_bytes_shared", std::to_string(cache_bytes(3)));
#ifdef PERFBENCH_BUILD_TYPE
  report.set_context("build_type", PERFBENCH_BUILD_TYPE);
#endif
  report.set_context("obs_compiled", PARGREEDY_OBS ? "1" : "0");
}

}  // namespace perfbench
