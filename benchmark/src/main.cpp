// vfbench: one workload per process.
//
//   vfbench --workload=<name> [--seed=42] [--seconds=10] [--traced=0|1]
//           [--smoke=0|1] [--out=<result.json>] [--spans=<spans.json>]
//           [--git-sha=<sha>]
//
// Writes the result record (fingerprint, checks, metrics) to --out, or to
// stdout when --out is absent, and the traced run's host spans to
// --spans. Exit 0 when every correctness check passed, 1 when one failed
// or the workload threw, 2 on a usage error. benchmark/run.py builds this
// binary and runs it.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "vfbench: %s\nusage: vfbench --workload=<train-large-batch|train-many-vn|"
               "serve-stream|cluster-960> [--seed=N] [--seconds=S] [--traced=0|1] "
               "[--smoke=0|1] [--out=PATH] [--spans=PATH] [--git-sha=SHA]\n",
               msg.c_str());
  std::exit(2);
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text;
  f.flush();
  if (!f) {
    std::fprintf(stderr, "vfbench: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using vfbench::RunOptions;
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos)
      usage("flags look like --key=value, got: " + arg);
    flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  static const std::map<std::string,
                        std::function<void(const RunOptions&, vfbench::Result&,
                                           vfbench::SpanLog&)>>
      kWorkloads = {{"train-large-batch", vfbench::run_train_large_batch},
                    {"train-many-vn", vfbench::run_train_many_vn},
                    {"serve-stream", vfbench::run_serve_stream},
                    {"cluster-960", vfbench::run_cluster_960}};

  RunOptions opt;
  try {
    for (const auto& [key, value] : flags) {
      if (key == "workload") {
        opt.workload = value;
      } else if (key == "seed") {
        opt.seed = std::stoull(value);
      } else if (key == "seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "traced") {
        opt.traced = std::stoi(value) != 0;
      } else if (key == "smoke") {
        opt.smoke = std::stoi(value) != 0;
      } else if (key != "out" && key != "spans" && key != "git-sha") {
        usage("unknown flag --" + key);
      }
    }
  } catch (const std::exception&) {
    usage("malformed flag value");
  }
  if (flags.count("git-sha")) opt.git_sha = flags["git-sha"];
  const auto it = kWorkloads.find(opt.workload);
  if (it == kWorkloads.end()) usage("unknown workload '" + opt.workload + "'");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");

  vfbench::Result res;
  vfbench::SpanLog spans(opt.traced);
  const double calib_before = vfbench::host_calib_us();
  try {
    it->second(opt, res, spans);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  const double calib_after = vfbench::host_calib_us();
  res.set_calibration(calib_before, calib_after);
  if (opt.traced) {
    res.layer("bench.host_calib_us", 0.5 * (calib_before + calib_after), "us", "host");
  } else {
    res.metric("peak_rss_mb", vfbench::peak_rss_mb(), "MB", "host");
  }

  const std::string json = res.to_json(opt);
  bool ok = true;
  if (flags.count("out")) {
    ok &= write_file(flags["out"], json);
  } else {
    std::fputs(json.c_str(), stdout);
  }
  if (opt.traced && flags.count("spans")) ok &= write_file(flags["spans"], spans.to_json());
  return ok && res.correct() ? 0 : 1;
}
