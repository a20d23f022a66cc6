// perfbench_harness: runs one workload of the repository benchmark in one
// process and writes what it measured as one JSON document. run.py builds
// it, runs it, checks its outcomes against reference.json and turns the raw
// samples into the metrics BENCHMARK.json names.
//
//   perfbench_harness --workload NAME --input-seed N --seconds S --trace 0|1
//                    --out PATH
//
// Exit codes: 0 = record written, 1 = bad usage, 2 = the workload or the
// write failed.
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "record.h"
#include "workloads.h"

namespace {

void usage(std::ostream& os) {
  os << "usage: perfbench_harness --workload cocomac_256|dense_pgas|serve_loop\n"
        "                        --input-seed N --seconds S --trace 0|1"
        " --out PATH\n";
}

bool parse(int argc, char** argv, perfbench::HarnessOptions& opt) {
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return false;
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--input-seed") {
        opt.input_seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace" && (value == "0" || value == "1")) {
        opt.trace = value == "1";
      } else if (flag == "--out") {
        opt.out = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return (opt.workload == "cocomac_256" || opt.workload == "dense_pgas" ||
          opt.workload == "serve_loop") &&
         !opt.out.empty() && opt.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::HarnessOptions opt;
  if (!parse(argc, argv, opt)) {
    usage(std::cerr);
    return 1;
  }
  perfbench::Record rec;
  rec.workload = opt.workload;
  rec.input_seed = opt.input_seed;
  rec.trace = opt.trace;
  perfbench::Spans spans;
  try {
    if (opt.workload == "serve_loop") {
      perfbench::run_serve_loop(opt, rec, spans);
    } else {
      perfbench::run_sim_workload(opt, rec, spans);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << opt.workload << ": " << e.what()
              << "\n";
    return 2;
  }
  std::ofstream os(opt.out);
  perfbench::write_record(os, rec, spans);
  os.close();
  if (!os) {
    std::cerr << "perfbench_harness: cannot write " << opt.out << "\n";
    return 2;
  }
  return 0;
}
