// perfbench harness: the repo benchmark's workloads, its hand-wired timed
// run path, and the result digest that pins each workload's simulated output.
//
// Every layer is reached through public entry points only:
// exp::build_trial_template, loadgen::generate_arrivals / ArrivalStream, the
// sched::SimulationDriver constructor and run(), the sched::IScheduler
// interface (wrapped by TimedScheduler), exp::run_trials,
// trace::extract_critical_path and the driver's observer() snapshot. The
// timed path is a step-by-step copy of exp::run_experiment, split at the
// points the benchmark times; selftest.cpp proves it byte-identical.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "exp/trial_runner.h"
#include "obs/registry.h"
#include "sched/driver.h"
#include "sched/scheduler.h"

namespace vmlp::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The seed whose digest each workload pins (perfbench/workloads.json).
inline constexpr std::uint64_t kDefaultSeed = 2022;

/// One named benchmark workload. A single-run workload executes `config`
/// once per iteration; a sweep workload executes `trials` seed-split copies
/// of it through exp::run_trials on a `threads`-wide pool.
struct Workload {
  std::string name;
  exp::ExperimentConfig config;
  bool sweep = false;
  std::size_t trials = 1;
  std::size_t threads = 1;
  /// obs counters the traced run must leave at zero: the layers this
  /// workload is meant to bypass.
  std::vector<std::string> bypassed;
};

/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name);
const std::vector<std::string>& workload_names();

/// run_trials' spec for a sweep workload at `base_seed`.
exp::TrialSpec sweep_spec(const Workload& w, std::uint64_t base_seed);

// ---- result digest ---------------------------------------------------------

/// Canonical full-precision text of every simulated RunResult field. The
/// host-clock `policy_seconds` is the one field left out.
std::string canonical_text(const sched::RunResult& r);
/// 64-bit FNV-1a of `text`, as 16 lowercase hex digits.
std::string digest_of(const std::string& text);
inline std::string digest(const sched::RunResult& r) { return digest_of(canonical_text(r)); }
/// Digest of a trial set: the rows' canonical texts, tagged by index and
/// seed, in trial-index order.
std::string digest(const exp::TrialSetResult& set);

/// A run's accounting invariant: every arrival is completed or unfinished.
inline bool accounting_holds(const sched::RunResult& r) {
  return r.arrived == r.completed + r.unfinished;
}

// ---- timing decorator ------------------------------------------------------

/// The eight IScheduler callbacks, in the order their metrics are printed.
enum class Callback : std::uint8_t {
  kArrival = 0,
  kUnblocked,
  kTick,
  kLate,
  kOrphaned,
  kStarted,
  kFinished,
  kRequestFinished,
};
inline constexpr std::size_t kCallbackCount = 8;
const char* callback_name(Callback cb);

struct CallbackStat {
  std::uint64_t calls = 0;
  double self_s = 0.0;
};
using CallbackStats = std::array<CallbackStat, kCallbackCount>;

/// IScheduler decorator that counts every callback and times the outermost
/// one. A callback the driver delivers while another is still on the stack
/// (place() starting a node synchronously, say) is counted under its own
/// name, but its time stays in the outer callback's self time, so the eight
/// self times sum to the host time spent inside policy.
class TimedScheduler final : public sched::IScheduler {
 public:
  explicit TimedScheduler(sched::IScheduler& inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void attach(sched::SimulationDriver& driver) override {
    IScheduler::attach(driver);
    inner_.attach(driver);
  }
  void on_request_arrival(RequestId id) override {
    Scope s(*this, Callback::kArrival);
    inner_.on_request_arrival(id);
  }
  void on_node_unblocked(RequestId id, std::size_t node) override {
    Scope s(*this, Callback::kUnblocked);
    inner_.on_node_unblocked(id, node);
  }
  void on_tick() override {
    Scope s(*this, Callback::kTick);
    inner_.on_tick();
  }
  void on_late_invocation(RequestId id, std::size_t node) override {
    Scope s(*this, Callback::kLate);
    inner_.on_late_invocation(id, node);
  }
  void on_node_orphaned(RequestId id, std::size_t node) override {
    Scope s(*this, Callback::kOrphaned);
    inner_.on_node_orphaned(id, node);
  }
  void on_node_started(RequestId id, std::size_t node) override {
    Scope s(*this, Callback::kStarted);
    inner_.on_node_started(id, node);
  }
  void on_node_finished(RequestId id, std::size_t node) override {
    Scope s(*this, Callback::kFinished);
    inner_.on_node_finished(id, node);
  }
  void on_request_finished(RequestId id) override {
    Scope s(*this, Callback::kRequestFinished);
    inner_.on_request_finished(id);
  }

  [[nodiscard]] const CallbackStats& stats() const { return stats_; }

 private:
  class Scope {
   public:
    Scope(TimedScheduler& owner, Callback cb) : owner_(owner), stat_(owner.stats_[index(cb)]) {
      ++stat_.calls;
      if (owner_.depth_++ == 0) start_ = Clock::now();
    }
    ~Scope() {
      if (--owner_.depth_ == 0) stat_.self_s += seconds_since(start_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    static std::size_t index(Callback cb) { return static_cast<std::size_t>(cb); }
    TimedScheduler& owner_;
    CallbackStat& stat_;
    Clock::time_point start_{};
  };

  sched::IScheduler& inner_;
  CallbackStats stats_{};
  int depth_ = 0;
};

// ---- one hand-wired run ----------------------------------------------------

/// Host seconds of the set-up steps, in the order run_experiment takes them.
struct SetupTimes {
  double suite_s = 0.0;    ///< exp::build_trial_template (suite + mix)
  double loadgen_s = 0.0;  ///< pattern + bulk arrivals (stream ctor when streamed)
  double driver_s = 0.0;   ///< scheduler + driver ctor (profile warmup) + arrival load
  [[nodiscard]] double total() const { return suite_s + loadgen_s + driver_s; }
};

/// What the traced variant of a run adds: decorator stats, the obs
/// snapshot, and the post-run critical-path pass over completed requests.
struct TraceCapture {
  CallbackStats callbacks{};
  obs::Snapshot snapshot;
  std::size_t spans = 0;
  std::size_t critical_paths = 0;   ///< completed requests extracted
  std::size_t phase_mismatches = 0; ///< paths whose phases do not sum to latency
  double critical_path_s = 0.0;
};

struct RunOutcome {
  sched::RunResult run;
  SetupTimes setup;
  double run_s = 0.0;  ///< driver.run()
  std::size_t cells = 0;  ///< cells the cluster topology was split into
  TraceCapture trace;  ///< filled only by a traced run
};

/// Set up and run `config` at `seed` the way exp::run_experiment does, timing
/// each step. `traced` wraps the scheduler in TimedScheduler, turns on
/// driver.obs and extracts every completed request's critical path after the
/// run. `execute` = false stops after set-up (set-up-only timing).
RunOutcome run_once(const exp::ExperimentConfig& config, std::uint64_t seed, bool traced,
                    bool execute = true);

/// Obs counter by name; 0 when the snapshot lacks it.
std::uint64_t counter(const obs::Snapshot& s, const std::string& name);
/// Obs gauge by name; 0 when the snapshot lacks it.
double gauge(const obs::Snapshot& s, const std::string& name);

}  // namespace vmlp::perfbench
