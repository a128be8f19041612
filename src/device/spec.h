// Simulated hardware accelerator catalog.
//
// Substitution (docs/architecture.md, "Layer map"): the paper's physical
// V100 / P100 / K80 / RTX 2080 Ti GPUs are replaced by analytic specs. `compute_efficiency`
// is calibrated so *relative* speeds match what the paper reports for its
// workloads (§5.1.2: "for this workload, V100 GPUs are 4x as fast as P100
// GPUs"), which is what the heterogeneous-training and scheduling results
// depend on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vf {

/// Accelerator model.
enum class DeviceType : std::uint8_t { kV100, kP100, kK80, kRtx2080Ti };
/// Number of DeviceType enumerators; they are numbered from 0.
inline constexpr std::size_t kNumDeviceTypes = 4;
static_assert(static_cast<std::size_t>(DeviceType::kRtx2080Ti) + 1 == kNumDeviceTypes,
              "kNumDeviceTypes must count every DeviceType");

const char* device_type_name(DeviceType t);

/// Static description of one accelerator type.
struct DeviceSpec {
  DeviceType type = DeviceType::kV100;
  std::string name;

  double peak_tflops = 0.0;        ///< peak FP32-equivalent training compute
  double compute_efficiency = 1.0; ///< achieved fraction of peak on DL kernels
  double mem_bytes = 0.0;          ///< HBM capacity
  double mem_bw_bytes = 0.0;       ///< memory bandwidth, bytes/s
  double usable_mem_fraction = 0.95;  ///< framework reserves the rest
  double kernel_launch_s = 30e-6;  ///< per-pass launch/dispatch overhead
  double step_fixed_s = 1e-3;      ///< per-step framework overhead
  double first_step_extra_s = 8.0; ///< one-off graph optimization (Fig 6)

  /// Effective sustained FLOP/s at full utilization.
  double effective_flops() const { return peak_tflops * 1e12 * compute_efficiency; }
  double usable_mem_bytes() const { return mem_bytes * usable_mem_fraction; }
};

/// Canonical spec for each device type. Efficiencies are calibrated so
/// that on compute-bound CNN workloads V100 : P100 : K80 ≈ 4 : 1 : 0.25
/// and RTX 2080 Ti ≈ 0.75 x V100, matching the ratios the paper reports.
const DeviceSpec& device_spec(DeviceType t);

/// A concrete accelerator instance in a simulated cluster.
struct Device {
  std::int64_t id = 0;
  DeviceType type = DeviceType::kV100;

  const DeviceSpec& spec() const { return device_spec(type); }
};

/// Builds `count` devices of one type with ids starting at `first_id`.
std::vector<Device> make_devices(DeviceType t, std::int64_t count,
                                 std::int64_t first_id = 0);

/// Concatenates heterogeneous device groups, re-numbering ids contiguously.
std::vector<Device> make_heterogeneous(
    const std::vector<std::pair<DeviceType, std::int64_t>>& groups);

}  // namespace vf
