// Runtime kernel backend: decides, once for the whole process, whether
// the SIMD mode (the default mode, or `VF_KERNELS=simd`) runs the vector
// core or the reference loops.
//
// VirtualFlow decouples the model from the hardware it runs on; on a CPU
// host the kernel layer is that hardware, and this probe is the
// decoupling point: the rest of the system only ever names a *mode*
// (`TensorConfig::kernel_mode()`), while the backend probes what the CPU
// can actually do (cpuid via `__builtin_cpu_supports`). One rule decides:
// when the vector core was compiled in, the CPU reports its ISA and no
// test force-disabled it (`simd_available()`), every simd-mode call runs
// the vector core, whatever its shape — the core's masked lanes cover an
// output narrower than one register. Otherwise every call runs the
// reference loops. Both produce the same bits (tensor/kernels.h), so the
// rule is a speed decision, never a contract one.
//
// See docs/kernels.md for the full tier handbook.
#pragma once

namespace vf::backend {

/// Raw CPU-feature probe (independent of what was compiled in or any
/// test override).
struct CpuFeatures {
  bool avx2 = false;  ///< x86-64 runtime cpuid probe
  bool neon = false;  ///< aarch64: baseline, compile-time
};

/// Process-wide backend. All queries are lock-free and safe from any
/// thread; the override hook is a test/setup API and must not race
/// in-flight kernels.
class BackendFactory {
 public:
  static BackendFactory& instance();

  /// True when this binary carries the vector core (the build gave
  /// kernels_simd.cpp a vector ISA). False on hosts/toolchains where the
  /// TU compiled empty.
  static bool simd_compiled();
  /// Name of the compiled vector ISA: "avx2", "neon" (no NEON core yet:
  /// the reference loops serve), or "none".
  static const char* simd_isa();

  /// Raw runtime probe of the host CPU.
  CpuFeatures cpu_features() const;

  /// True iff the simd mode runs the vector core: vector core compiled
  /// in, the CPU reports the ISA, and no test override.
  bool simd_available() const;

  /// Test hook: make the backend behave as if the vector ISA were absent
  /// (every simd-mode call then runs the reference loops).
  void set_simd_disabled(bool disabled);
  bool simd_disabled() const;

 private:
  BackendFactory();
};

/// RAII test guard: force-disables the SIMD tier for a scope and restores
/// the previous override on exit.
class ScopedSimdDisable {
 public:
  ScopedSimdDisable()
      : saved_(BackendFactory::instance().simd_disabled()) {
    BackendFactory::instance().set_simd_disabled(true);
  }
  ~ScopedSimdDisable() { BackendFactory::instance().set_simd_disabled(saved_); }
  ScopedSimdDisable(const ScopedSimdDisable&) = delete;
  ScopedSimdDisable& operator=(const ScopedSimdDisable&) = delete;

 private:
  bool saved_;
};

}  // namespace vf::backend
