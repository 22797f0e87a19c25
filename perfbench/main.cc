// TT-Rec end-to-end benchmark: runs one workload and prints its metrics as
// the last line of standard output.
//
//   ttrec_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --workdir <dir> [--commit <id>]
//
// run.py builds this binary and is the supported entry point (README.md).
#include <malloc.h>
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "probes.h"
#include "report.h"
#include "tensor/parallel.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: ttrec_perfbench --workload "
               "<train_tt|train_cached_shift|serve_steady|serve_overload> "
               "--seed <n> --seconds <s> --trace <0|1> --workdir <dir> "
               "[--commit <id>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string commit = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--workdir") {
      opt.workdir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage();
    }
  }
  const bool training = perfbench::IsTrainingWorkload(opt.workload);
  if (argc % 2 == 0 || opt.workdir.empty() || !(opt.seconds > 0.0) ||
      (!training && !perfbench::IsServingWorkload(opt.workload))) {
    return Usage();
  }

  // A fixed mmap threshold keeps large buffers out of the heap, so the
  // peak RSS does not depend on glibc's adaptive threshold history.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  try {
    ttrec::ThreadPool::SetGlobalThreads(1);
    // The stamp measures the host's parallelism before the process confines
    // itself, and every thread it starts later, to one CPU.
    perfbench::EnvStamp env = perfbench::MeasureEnv(commit);
    env.pinned_cpu = perfbench::PinToOneCpu();
    perfbench::Ledger ledger;
    perfbench::Ledger* traced = opt.trace ? &ledger : nullptr;
    perfbench::Result result = training
                                   ? perfbench::RunTraining(opt, traced)
                                   : perfbench::RunServing(opt, traced);
    perfbench::PrintEnv(env);
    if (traced != nullptr) {
      ledger.Set("tensor.gemm_gflops", env.gemm_gflops);
      ledger.Set("env.effective_parallelism", env.effective_parallelism);
      ledger.Set("env.pool_threads", env.pool_threads);
      ledger.AddTo(result);
    }
    result.Print();
    return result.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
