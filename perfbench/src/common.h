// Shared pieces of the rdfsum_perf harness: command-line arguments, the
// result report (the JSON lines run.py forwards), sample statistics,
// process memory, the order-independent row hash used by every
// correctness check, and the in-memory span log of the traced run.
#ifndef RDFSUM_PERFBENCH_COMMON_H_
#define RDFSUM_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perf {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where images are written, and where a traced run's span log goes.
  std::string work_dir = ".";
  std::string span_dir = ".";
  /// Triples in the served image; 0 = the workload default.
  uint64_t serve_triples = 0;
  /// Triples in the ingest text; 0 = the workload default.
  uint64_t ingest_triples = 0;
  /// Full set-ups per untraced run (setup_s is their median); 0 = the
  /// workload's default.
  int setup_repeats = 0;
  /// Self-test hook: perturb every expected row hash after set-up, so the
  /// timed window's correctness check must fail.
  bool corrupt_expected = false;
  /// Commit id supplied by run.py ("unknown" outside a git checkout).
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

/// Parses argv; returns false (after printing why) on a malformed line.
bool ParseArgs(int argc, char** argv, Args* out);

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MillisSince(Clock::time_point t0) {
  return 1e3 * SecondsSince(t0);
}

/// Linear-interpolated quantile (numpy's default) of `v`; 0 when empty.
double Quantile(std::vector<double> v, double q);
double Median(const std::vector<double>& v);

/// CPUs this process may run on (what `nproc` prints).
unsigned Nproc();

/// Returns freed heap to the kernel, so a later peak starts from what is
/// live rather than from what earlier phases left cached in the allocator.
void TrimHeap();
/// Resets the kernel's peak-RSS mark (Linux clear_refs "5"); false when the
/// kernel refuses, in which case PeakRssMb covers the whole process life.
bool ResetPeakRss();
/// Peak resident set (VmHWM) in MiB.
double PeakRssMb();

/// Order-independent digest of a row set: the wrapping sum of a mixed
/// FNV-1a hash of each row's terms. Rows are distinct, so a sum suffices.
uint64_t RowDigest(const std::vector<std::string>& row);

struct Expected {
  uint64_t rows = 0;
  uint64_t hash = 0;
};

/// One timed call into a layer: its name, the request or cycle it served,
/// and its bounds in seconds since the run started.
struct Span {
  std::string name;
  uint64_t owner = 0;
  double start = 0.0;
  double end = 0.0;
};

/// The traced run's span store: spans stay in memory and are written out
/// once, after measuring.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}
  void Add(const std::string& name, uint64_t owner, Clock::time_point start,
           Clock::time_point end);
  void Append(const SpanLog& other);
  bool WriteJsonLines(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// The benchmark's stdout: a stamp line, a coverage line, then the result
/// line `{"correct", "attempted", "failed", "metrics"}`, which is last.
class Report {
 public:
  void Stamp(const std::string& key, const std::string& value);
  void Stamp(const std::string& key, double value);
  /// A coverage check: recorded with its value; a failing one makes the
  /// run incorrect.
  void Check(const std::string& name, bool ok, const std::string& detail);
  void Metric(const std::string& name, double value, const std::string& unit);
  /// A figure the benchmark does not gate: a per-layer metric in a traced
  /// run (`traced`), a stamp entry otherwise.
  void Ungated(const std::string& name, double value, const std::string& unit,
               bool traced);
  /// Counts one attempted operation, failed or not. The first few
  /// failure reasons are kept for the coverage line.
  void Attempt(bool ok, const std::string& why = "");
  void AddAttempts(uint64_t attempted, uint64_t failed,
                   const std::vector<std::string>& reasons);

  bool correct() const { return checks_ok_ && failed_ == 0; }
  /// Prints the stamp, coverage and result lines.
  void Print() const;

 private:
  std::vector<std::pair<std::string, std::string>> stamp_;
  std::vector<std::pair<std::string, std::string>> checks_;
  std::vector<std::string> failures_;
  bool checks_ok_ = true;
  std::map<std::string, std::pair<double, std::string>> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace perf

#endif  // RDFSUM_PERFBENCH_COMMON_H_
