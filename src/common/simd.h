// Portable SIMD layer for the cell topology's headroom summary: f64 lanes
// behind one function-pointer table, selected once at startup by runtime
// dispatch.
//
// Scope and contract:
//
//  * Four targets — kScalar (always available), kSse2 / kAvx2 (x86 via
//    intrinsics, 128/256-bit lanes), kNeon (aarch64, 128-bit lanes). The
//    active table is resolved once from CPUID plus two environment knobs
//    (VMLP_NO_SIMD forces scalar; VMLP_SIMD_TARGET=scalar|sse2|avx2|neon
//    pins a specific target, falling back to scalar when the host lacks
//    it). Building with -DVMLP_NO_SIMD=ON compiles the intrinsic legs out
//    entirely; only the scalar table remains reachable.
//
//  * Every kernel is **bit-identical across targets**. That is a hard
//    requirement — the cell router's index jumps are built on these scans
//    and tools/determinism_check compares whole runs byte for byte — and it
//    is achievable because the kernels restrict themselves to compares and
//    max:
//      - a max fold over finite doubles is order-independent (no
//        reassociated accumulation anywhere), so lane-parallel folding and
//        scalar left-folding produce the same bits;
//      - find-first kernels reduce lane hit-masks in index order (lowest
//        lane wins), so the reported index never depends on lane count.
//    tests/test_simd.cpp enforces this differentially against the scalar
//    table on every host-reachable target.
//
//  * Intrinsics and <immintrin.h>/<arm_neon.h> includes are confined to
//    common/simd*.cpp — tools/vmlp_lint.py (simd-isolation) rejects them
//    anywhere else, so every consumer goes through this table and inherits
//    the bit-exactness argument instead of re-deriving it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vmlp::simd {

enum class Target : std::uint8_t { kScalar = 0, kSse2 = 1, kAvx2 = 2, kNeon = 3 };
inline constexpr std::size_t kTargetCount = 4;

/// Stable lowercase name ("scalar", "sse2", "avx2", "neon") — the accepted
/// values of VMLP_SIMD_TARGET.
const char* target_name(Target t);

/// One dispatch table: the kernels the cell headroom index needs, each taking
/// a plain contiguous array (CellTopology's cached free fractions).
struct KernelTable {
  Target target;

  /// Plain max over x[0..n); -inf when n == 0.
  double (*reduce_max1)(const double* x, std::size_t n);
  /// First index i with x[i] >= threshold, or n when none.
  std::size_t (*first_ge)(const double* x, std::size_t n, double threshold);
};

/// Does this build + this CPU provide `t`? kScalar is always true; intrinsic
/// targets are false under -DVMLP_NO_SIMD=ON, on foreign architectures, and
/// when CPUID lacks the feature.
bool host_supports(Target t);

/// The table for `t`, or nullptr when !host_supports(t). Used by the
/// differential tests and kernel benchmarks to compare legs explicitly.
const KernelTable* table_for(Target t);

/// Pure dispatch-policy function, exposed so the unit test can drive it with
/// explicit strings: `no_simd_env`/`target_env` stand in for
/// getenv("VMLP_NO_SIMD") / getenv("VMLP_SIMD_TARGET") (nullptr = unset).
/// Policy: VMLP_NO_SIMD set to anything but "" or "0" forces kScalar;
/// otherwise an explicitly named supported target wins (unsupported names
/// fall back to kScalar, never to a different intrinsic leg); otherwise the
/// best CPUID-supported target (avx2 > sse2 > neon > scalar).
Target resolve_target(const char* no_simd_env, const char* target_env);

/// The active table. Resolved once (thread-safe) from the real environment
/// on first use; afterwards a single atomic load.
const KernelTable& kernels();
Target active_target();
/// True when a non-scalar target is active.
bool enabled();

/// Every host-reachable target, kScalar first. The kernel tests and
/// benchmarks iterate this so coverage adapts to the host.
std::vector<Target> reachable_targets();

/// Test/bench-only override of the active table (must name a reachable
/// target). Single-threaded use only — callers flip it around a query or a
/// timed region and restore the previous active_target(). The store/load
/// pair is atomic, so a misuse is a logic error, not a data race.
void set_target_for_testing(Target t);

}  // namespace vmlp::simd
