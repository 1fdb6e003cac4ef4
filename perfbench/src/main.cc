// rdfsum_perf: the repository benchmark's harness. run.py builds it and
// forwards its flags; see README.md for the workloads and metrics.
//
//   rdfsum_perf --workload serve_point|serve_mixed|ingest --seed N
//               --seconds S --trace 0|1 [--work-dir DIR]
//
// The last stdout line is the result object; a failed set-up exits 1 and
// prints no result.
#include <iostream>
#include <thread>

#include "common.h"
#include "workloads.h"

int main(int argc, char** argv) {
  perf::Args args;
  if (!perf::ParseArgs(argc, argv, &args)) return 2;
  perf::Report report;
  report.Stamp("workload", args.workload);
  report.Stamp("seed", static_cast<double>(args.seed));
  report.Stamp("seconds", args.seconds);
  report.Stamp("trace", args.trace ? 1 : 0);
  report.Stamp("nproc", perf::Nproc());
  report.Stamp("hardware_concurrency", std::thread::hardware_concurrency());
  report.Stamp("compiler", PERF_COMPILER);
  report.Stamp("build_type", PERF_BUILD_TYPE);
  report.Stamp("git_sha", args.git_sha);
  report.Stamp("source_digest", args.source_digest);

  int rc = 2;
  if (args.workload == "serve_point") {
    rc = perf::RunServePoint(args, &report);
  } else if (args.workload == "serve_mixed") {
    rc = perf::RunServeMixed(args, &report);
  } else if (args.workload == "ingest") {
    rc = perf::RunIngest(args, &report);
  } else {
    std::cerr << "rdfsum_perf: unknown workload " << args.workload << "\n";
  }
  if (rc != 0) return rc;
  report.Print();
  return 0;
}
