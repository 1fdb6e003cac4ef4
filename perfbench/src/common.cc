#include "common.h"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

namespace perf {

bool ParseArgs(int argc, char** argv, Args* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "rdfsum_perf: " << flag << " needs a value\n";
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      out->workload = value;
    } else if (flag == "--seed") {
      out->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      out->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      out->trace = value == "1";
      if (value != "0" && value != "1") end = argv[i];
    } else if (flag == "--work-dir") {
      out->work_dir = value;
    } else if (flag == "--span-dir") {
      out->span_dir = value;
    } else if (flag == "--serve-triples") {
      out->serve_triples = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--ingest-triples") {
      out->ingest_triples = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--setup-repeats") {
      out->setup_repeats = std::atoi(value.c_str());
    } else if (flag == "--corrupt-expected") {
      out->corrupt_expected = value == "1";
    } else if (flag == "--git-sha") {
      out->git_sha = value;
    } else if (flag == "--source-digest") {
      out->source_digest = value;
    } else {
      std::cerr << "rdfsum_perf: unknown flag " << flag << "\n";
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::cerr << "rdfsum_perf: bad value for " << flag << ": " << value
                << "\n";
      return false;
    }
  }
  if (out->workload.empty() || !(out->seconds > 0) ||
      out->setup_repeats < 0) {
    std::cerr << "usage: rdfsum_perf --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n";
    return false;
  }
  return true;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

unsigned Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

void TrimHeap() { malloc_trim(0); }

bool ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  if (!f) return false;
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

uint64_t RowDigest(const std::vector<std::string>& row) {
  uint64_t h = 1469598103934665603ull;
  for (const std::string& term : row) {
    for (unsigned char c : term) {
      h ^= c;
      h *= 1099511628211ull;
    }
    h ^= 0x1f;  // term separator
    h *= 1099511628211ull;
  }
  // splitmix64 finalizer: spreads FNV's low-entropy high bits before the
  // rows are summed.
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

void SpanLog::Add(const std::string& name, uint64_t owner,
                  Clock::time_point start, Clock::time_point end) {
  spans_.push_back(
      {name, owner, std::chrono::duration<double>(start - origin_).count(),
       std::chrono::duration<double>(end - origin_).count()});
}

void SpanLog::Append(const SpanLog& other) {
  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonObject(
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string out = "{";
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(fields[i].first) + ": " + fields[i].second;
  }
  return out + "}";
}

}  // namespace

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::ofstream f(path);
  char buf[96];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof(buf), ",\"owner\":%llu,\"start\":%.9f,\"end\":%.9f}\n",
                  static_cast<unsigned long long>(s.owner), s.start, s.end);
    f << "{\"name\":" << JsonString(s.name) << buf;
  }
  return static_cast<bool>(f);
}

void Report::Stamp(const std::string& key, const std::string& value) {
  stamp_.emplace_back(key, JsonString(value));
}

void Report::Stamp(const std::string& key, double value) {
  stamp_.emplace_back(key, JsonNumber(value));
}

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.emplace_back(name, JsonObject({{"ok", ok ? "true" : "false"},
                                         {"detail", JsonString(detail)}}));
  if (!ok) {
    checks_ok_ = false;
    std::cerr << "rdfsum_perf: check failed: " << name << " (" << detail
              << ")\n";
  }
}

void Report::Ungated(const std::string& name, double value,
                     const std::string& unit, bool traced) {
  if (traced) {
    Metric(name, value, unit);
  } else {
    Stamp(name, value);
  }
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Check("finite:" + name, false, "metric is not a finite number");
    value = 0.0;
  }
  metrics_[name] = {value, unit};
}

void Report::Attempt(bool ok, const std::string& why) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failures_.size() < 8) failures_.push_back(why);
  }
}

void Report::AddAttempts(uint64_t attempted, uint64_t failed,
                         const std::vector<std::string>& reasons) {
  attempted_ += attempted;
  failed_ += failed;
  for (const std::string& r : reasons) {
    if (failures_.size() < 8) failures_.push_back(r);
  }
}

void Report::Print() const {
  std::cout << JsonObject({{"stamp", JsonObject(stamp_)}}) << "\n";
  std::vector<std::pair<std::string, std::string>> cov = checks_;
  std::string reasons = "[";
  for (size_t i = 0; i < failures_.size(); ++i) {
    reasons += (i > 0 ? ", " : "") + JsonString(failures_[i]);
  }
  cov.emplace_back("failure_reasons", reasons + "]");
  std::cout << JsonObject({{"coverage", JsonObject(cov)}}) << "\n";

  std::vector<std::pair<std::string, std::string>> metrics;
  for (const auto& [name, vu] : metrics_) {
    metrics.emplace_back(name, JsonObject({{"value", JsonNumber(vu.first)},
                                           {"unit", JsonString(vu.second)}}));
  }
  std::cout << JsonObject({{"correct", correct() ? "true" : "false"},
                           {"attempted", std::to_string(std::max<uint64_t>(
                                             1, attempted_))},
                           {"failed", std::to_string(failed_)},
                           {"metrics", JsonObject(metrics)}})
            << std::endl;
}

}  // namespace perf
