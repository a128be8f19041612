#include "common/bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string_view>

namespace vf::bench {

namespace {

/// Usage errors exit cleanly with kUsageErrorExit after a stderr diagnosis
/// (a thrown VfError would escape main and abort via std::terminate, which
/// buries the message under stack noise and yields a SIGABRT exit status).
[[noreturn]] void usage_error(const std::string& msg,
                              const std::map<std::string, std::string>& known) {
  std::cerr << "error: " << msg << "\nKnown flags:\n";
  for (const auto& [key, desc] : known) std::cerr << "  --" << key << "=...  " << desc << "\n";
  std::cerr << "Run with --help for details.\n";
  std::exit(kUsageErrorExit);
}

}  // namespace

Flags::Flags(int argc, char** argv, const std::map<std::string, std::string>& known)
    : known_(known) {
  known_.emplace("smoke", "run a tiny workload (used by `ctest -L bench-smoke`)");
  known_.emplace("json", "write machine-readable results (name/value/unit JSON) here");
  known_.emplace("trace", "write a Chrome trace-event JSON timeline here (Perfetto-openable)");
  known_.emplace("metrics", "write a runtime MetricsRegistry snapshot (JSON) here");
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) usage_error("flags look like --key=value, got: " + arg, known_);
    const auto eq = arg.find('=');
    if (eq == std::string::npos) usage_error("missing '=' in flag: " + arg, known_);
    const std::string key = arg.substr(2, eq - 2);
    if (known_.count(key) != 1) usage_error("unknown flag --" + key, known_);
    values_[key] = arg.substr(eq + 1);
  }
}

std::int64_t Flags::get_int(const std::string& key, std::int64_t def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? def : std::stoll(it->second);
}

double Flags::get_double(const std::string& key, double def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? def : std::stod(it->second);
}

std::int64_t Flags::get_int(const std::string& key, std::int64_t def,
                            std::int64_t smoke_def) const {
  return get_int(key, smoke() ? smoke_def : def);
}

double Flags::get_double(const std::string& key, double def, double smoke_def) const {
  return get_double(key, smoke() ? smoke_def : def);
}

std::string Flags::get_string(const std::string& key, const std::string& def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

void Flags::print_help(const std::string& title) const {
  std::cout << title << "\n\nFlags:\n";
  for (const auto& [key, desc] : known_) std::cout << "  --" << key << "=...  " << desc << "\n";
}

EngineSetup make_setup(const std::string& task_name, const std::string& profile_name,
                       std::int64_t total_vns, std::int64_t num_devices,
                       DeviceType type, std::uint64_t seed,
                       std::int64_t batch_override, std::int64_t epochs_override) {
  ProxyTask task = make_task(task_name, seed);
  TrainRecipe recipe = batch_override > 0
                           ? make_recipe_with_batch(task_name, batch_override)
                           : make_recipe(task_name);
  if (epochs_override > 0) recipe.epochs = epochs_override;
  Sequential model = make_proxy_model(task_name, seed);

  EngineConfig cfg;
  cfg.seed = seed;
  // The proxy models are tiny; simulated memory limits apply to the paper
  // profile and are already exercised by the memory benches/tests. The
  // training benches run the mappings the paper ran.
  cfg.enforce_memory = false;

  VirtualFlowEngine engine(model, *recipe.optimizer, *recipe.schedule, *task.train,
                           model_profile(profile_name), make_devices(type, num_devices),
                           VnMapping::even(total_vns, num_devices, recipe.global_batch),
                           cfg);
  return EngineSetup{std::move(task), std::move(recipe), std::move(engine)};
}

TaskBox::TaskBox(const std::string& task_name, std::uint64_t seed, std::int64_t batch)
    : task(make_task(task_name, seed)),
      model(make_proxy_model(task_name, seed)),
      recipe(batch > 0 ? make_recipe_with_batch(task_name, batch) : make_recipe(task_name)) {}

VirtualFlowEngine TaskBox::engine(const std::string& profile, std::int64_t vns,
                                  std::int64_t devices, std::int64_t workers,
                                  std::uint64_t seed) const {
  EngineConfig cfg;
  cfg.seed = seed;
  cfg.enforce_memory = false;
  cfg.num_threads = workers;
  return VirtualFlowEngine(model, *recipe.optimizer, *recipe.schedule, *task.train,
                           model_profile(profile), make_devices(DeviceType::kV100, devices),
                           VnMapping::even(vns, devices, recipe.global_batch), cfg);
}

std::string identity_verdict(const char* moved) {
  return moved == nullptr ? "yes" : std::string("NO — BUG (") + moved + " moved)";
}

const char* schedule_only(const char* moved) {
  if (moved == nullptr) return nullptr;
  const std::string_view s = moved;
  return s == "trace" || s == "metrics" ? nullptr : moved;
}

void print_claim(const std::string& name, double measured, double paper,
                 const std::string& unit) {
  std::printf("  %-52s measured=%.3f%s paper=%.3f%s\n", name.c_str(), measured,
              unit.c_str(), paper, unit.c_str());
}

}  // namespace vf::bench
