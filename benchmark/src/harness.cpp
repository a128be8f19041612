#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "obs/json.h"
#include "tensor/backend.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/stats.h"

#ifndef VFBENCH_BUILD_TYPE
#define VFBENCH_BUILD_TYPE "unknown"
#endif

namespace vfbench {

using vf::obs::append_double;
using vf::obs::json_escape;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double host_quantile(const std::vector<double>& unit_s) {
  return vf::percentile(unit_s, kHostQuantile);
}

SampleStats summarize(const std::vector<double>& samples, double q) {
  SampleStats s;
  s.n = static_cast<std::int64_t>(samples.size());
  if (samples.empty()) return s;
  constexpr std::size_t kChunks = 5;
  const std::size_t chunks = std::min(kChunks, samples.size());
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto begin = samples.begin() + static_cast<std::ptrdiff_t>(c * samples.size() / chunks);
    const auto end =
        samples.begin() + static_cast<std::ptrdiff_t>((c + 1) * samples.size() / chunks);
    s.chunks.push_back(vf::percentile(std::vector<double>(begin, end), q));
  }
  static const std::vector<double> kLadder = {0.99, 0.95, 0.9, 0.75, 0.5};
  std::vector<double> ps = {0.1, 0.25, 0.5, 0.75};
  for (const double p : kLadder) {
    if (static_cast<double>(s.n) * (1.0 - p) >= 10.0) {
      s.tail_p = p;
      ps.push_back(p);
      break;
    }
  }
  const std::vector<double> pv = vf::percentiles(samples, ps);
  s.p10 = pv[0];
  s.p25 = pv[1];
  s.p50 = pv[2];
  s.p75 = pv[3];
  if (s.tail_p > 0.0) s.tail = pv[4];
  return s;
}

std::int64_t run_trials(const RunOptions& opt, std::int64_t min_trials,
                        std::int64_t smoke_trials,
                        const std::function<void(std::int64_t)>& trial) {
  std::int64_t i = 0;
  if (opt.smoke) {
    for (; i < smoke_trials; ++i) trial(i);
    return i;
  }
  // Stop before a trial that would overrun the budget at the mean trial
  // length, so long trials do not overshoot `seconds` by most of a trial.
  const double t0 = now_s();
  while (true) {
    const double elapsed = now_s() - t0;
    if (i >= min_trials && elapsed + elapsed / static_cast<double>(i) > opt.seconds) break;
    trial(i++);
  }
  return i;
}

std::uint64_t realization_seed(std::uint64_t seed, std::int64_t k) {
  return k == 0 ? seed : vf::derive_seed(seed, 0xCA9AC17ULL + static_cast<std::uint64_t>(k));
}

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

void Result::metric(const std::string& name, double value, const std::string& unit,
                    const std::string& clock) {
  metrics_[name] = Metric{value, unit, clock, false, {}};
}

void Result::host_metric(const std::string& name, const std::string& unit,
                         const std::vector<double>& samples, double q) {
  metrics_[name] =
      Metric{vf::percentile(samples, q), unit, "host", true, summarize(samples, q)};
}

void Result::host_throughput(const std::vector<double>& unit_rates) {
  host_metric("host_items_per_s", "items/s", unit_rates, 1.0 - kHostQuantile);
}

void Result::host_setup(const std::vector<double>& setup_s) {
  host_metric("setup_s", "s", setup_s, kHostQuantile);
}

void Result::layer(const std::string& name, double value, const std::string& unit,
                   const std::string& clock) {
  layers_[name] = Metric{value, unit, clock, false, {}};
}

void Result::detail(const std::string& name, double value, const std::string& unit,
                    const std::string& clock) {
  details_[name] = Metric{value, unit, clock, false, {}};
}

void Result::check(const std::string& name, bool ok, const std::string& what) {
  checks_.push_back({name, ok, what});
}

void Result::count_work(std::int64_t attempted, std::int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Result::set_calibration(double before_us, double after_us) {
  calib_before_us_ = before_us;
  calib_after_us_ = after_us;
}

bool Result::correct() const {
  if (attempted_ < 1) return false;
  for (const Check& c : checks_)
    if (!c.ok) return false;
  return true;
}

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000U, nullptr) >= 0x80000004U) {
    for (unsigned int i = 0; i < 3; ++i)
      __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    const auto last = s.find_last_not_of(' ');
    if (first != std::string::npos) return s.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

void append_metric_map(std::string& out, const std::map<std::string, Metric>& m) {
  out += "{";
  bool first = true;
  for (const auto& [name, v] : m) {
    out += first ? "\n    \"" : ",\n    \"";
    first = false;
    out += json_escape(name) + "\": {\"value\": ";
    append_double(out, v.value);
    out += ", \"unit\": \"" + json_escape(v.unit) + "\", \"clock\": \"" + v.clock + "\"";
    if (v.has_stats) {
      out += ", \"n\": " + std::to_string(v.stats.n) + ", \"p10\": ";
      append_double(out, v.stats.p10);
      out += ", \"p25\": ";
      append_double(out, v.stats.p25);
      out += ", \"p50\": ";
      append_double(out, v.stats.p50);
      out += ", \"p75\": ";
      append_double(out, v.stats.p75);
      out += ", \"tail_p\": ";
      append_double(out, v.stats.tail_p);
      out += ", \"tail\": ";
      append_double(out, v.stats.tail);
      out += ", \"chunks\": [";
      for (std::size_t i = 0; i < v.stats.chunks.size(); ++i) {
        if (i > 0) out += ", ";
        append_double(out, v.stats.chunks[i]);
      }
      out += "]";
    }
    out += "}";
  }
  out += m.empty() ? "}" : "\n  }";
}

}  // namespace

std::string Result::to_json(const RunOptions& opt) const {
  const auto& factory = vf::backend::BackendFactory::instance();
  std::string out = "{\n  \"workload\": \"" + json_escape(opt.workload) + "\",\n";
  out += "  \"seed\": " + std::to_string(opt.seed) + ",\n";
  out += std::string("  \"traced\": ") + (opt.traced ? "true" : "false") + ",\n";
  out += std::string("  \"smoke\": ") + (opt.smoke ? "true" : "false") + ",\n";
  out += "  \"seconds\": ";
  append_double(out, opt.seconds);
  out += ",\n  \"fingerprint\": {\"cpu_model\": \"" + json_escape(cpu_model()) + "\"";
  out += std::string(", \"avx2\": ") + (factory.cpu_features().avx2 ? "true" : "false");
  out += std::string(", \"simd_compiled\": ") +
         (vf::backend::BackendFactory::simd_compiled() ? "true" : "false");
  out += std::string(", \"kernel_tier\": \"") +
         vf::kernel_mode_name(vf::TensorConfig::kernel_mode()) + "\"";
  out += ", \"build_type\": \"" + json_escape(VFBENCH_BUILD_TYPE) + "\"";
  out += ", \"git_sha\": \"" + json_escape(opt.git_sha) + "\"";
  out += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"seed\": " + std::to_string(opt.seed);
  out += ", \"host_calib_us_before\": ";
  append_double(out, calib_before_us_);
  out += ", \"host_calib_us_after\": ";
  append_double(out, calib_after_us_);
  out += "},\n";
  out += std::string("  \"correct\": ") + (correct() ? "true" : "false") + ",\n";
  out += "  \"attempted\": " + std::to_string(attempted_) + ",\n";
  out += "  \"failed\": " + std::to_string(failed_) + ",\n";
  out += "  \"checks\": [";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    const Check& c = checks_[i];
    out += i == 0 ? "\n    " : ",\n    ";
    out += "{\"name\": \"" + json_escape(c.name) + "\", \"ok\": " +
           (c.ok ? "true" : "false") + ", \"what\": \"" + json_escape(c.what) + "\"}";
  }
  out += checks_.empty() ? "],\n" : "\n  ],\n";
  out += "  \"metrics\": ";
  append_metric_map(out, metrics_);
  out += ",\n  \"layers\": ";
  append_metric_map(out, layers_);
  out += ",\n  \"details\": ";
  append_metric_map(out, details_);
  out += "\n}\n";
  return out;
}

// ---------------------------------------------------------------------------
// SpanLog
// ---------------------------------------------------------------------------

SpanLog::SpanLog(bool enabled) : enabled_(enabled), origin_s_(now_s()) {
  if (enabled_) spans_.reserve(kCap);
}

std::int64_t SpanLog::begin(const char* name, std::int64_t parent, std::int64_t trial,
                            std::int64_t step) {
  const double t = now_s();
  return add(name, t, t, parent, trial, step);
}

void SpanLog::end(std::int64_t id) {
  if (id == kNone) return;
  spans_[static_cast<std::size_t>(id)].end_s = now_s();
}

std::int64_t SpanLog::add(const char* name, double start_s, double end_s,
                          std::int64_t parent, std::int64_t trial, std::int64_t step) {
  if (!enabled_) return kNone;
  if (spans_.size() >= kCap) {
    ++dropped_;
    return kNone;
  }
  spans_.push_back({name, start_s, end_s, parent, trial, step});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::string SpanLog::to_json() const {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"clock\": \"host\", "
                    "\"dropped_spans\": " +
                    std::to_string(dropped_) + "},\n\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"name\": \"" + json_escape(s.name) +
           "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": ";
    append_double(out, (s.start_s - origin_s_) * 1e6);
    out += ", \"dur\": ";
    append_double(out, (s.end_s - s.start_s) * 1e6);
    out += ", \"args\": {\"id\": " + std::to_string(i) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"trial\": " + std::to_string(s.trial) +
           ", \"step\": " + std::to_string(s.step) + "}}";
  }
  out += "\n]}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Host probes
// ---------------------------------------------------------------------------

double host_calib_us() {
  // A dependent multiply-add chain: latency-bound, no memory traffic, none
  // of the library's code. It follows the host's slow global speed drift
  // and barely moves in the contended slow mode, which the workload's own
  // chunks show instead.
  constexpr int kReps = 150;
  std::vector<double> us;
  us.reserve(kReps);
  volatile double sink = 0.0;
  for (int r = 0; r < kReps; ++r) {
    const double t0 = now_s();
    double acc = 1.0;
    for (int i = 0; i < 100000; ++i) acc = acc * 1.0000001 + 1e-9;
    sink = acc;
    us.push_back((now_s() - t0) * 1e6);
  }
  (void)sink;
  return host_quantile(us);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage ru{};  // no procfs: fall back to the (exec-inheriting) rusage peak
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

KernelRates measure_kernels(std::int64_t rows, std::int64_t in, std::int64_t out,
                            std::uint64_t seed, bool smoke) {
  const vf::KernelMode mode = vf::TensorConfig::kernel_mode();
  vf::CounterRng rng(seed, /*stream=*/0xBE7C5);
  const vf::Tensor x = vf::Tensor::randn({rows, in}, rng);
  const vf::Tensor w = vf::Tensor::randn({in, out}, rng);
  const vf::Tensor g = vf::Tensor::randn({rows, out}, rng);
  vf::Tensor y({rows, out});
  vf::Tensor dw({in, out});
  vf::Tensor dx({rows, in});
  const double flops = 2.0 * static_cast<double>(rows) * static_cast<double>(in) *
                       static_cast<double>(out);
  // Batches of ~0.25 ms of calls; the host statistic of the per-call time.
  const auto reps =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(2.5e-4 * 2e9 / flops));
  const int batches = smoke ? 5 : 40;
  const auto rate = [&](const std::function<void()>& call) {
    call();  // warm
    std::vector<double> per_call;
    for (int b = 0; b < batches; ++b) {
      const double t0 = now_s();
      for (std::int64_t r = 0; r < reps; ++r) call();
      per_call.push_back((now_s() - t0) / static_cast<double>(reps));
    }
    return flops / host_quantile(per_call) / 1e9;
  };
  KernelRates k;
  k.fwd_gflops = rate([&] {
    vf::kernels::matmul(x.data().data(), w.data().data(), y.data().data(), rows, in,
                        out, mode);
  });
  k.dw_gflops = rate([&] {
    vf::kernels::matmul_transpose_lhs(x.data().data(), g.data().data(),
                                      dw.data().data(), in, rows, out, mode);
  });
  k.dx_gflops = rate([&] {
    vf::kernels::matmul_transpose_rhs(g.data().data(), w.data().data(),
                                      dx.data().data(), rows, out, in, mode);
  });
  return k;
}

// ---------------------------------------------------------------------------
// BitHash (FNV-1a over the value bytes)
// ---------------------------------------------------------------------------

namespace {
std::uint64_t fnv(std::uint64_t h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ULL;
  }
  return h;
}
}  // namespace

void BitHash::add(double v) { h_ = fnv(h_, &v, sizeof v); }
void BitHash::add(std::int64_t v) { h_ = fnv(h_, &v, sizeof v); }
void BitHash::add(std::span<const float> v) {
  h_ = fnv(h_, v.data(), v.size() * sizeof(float));
}

}  // namespace vfbench
