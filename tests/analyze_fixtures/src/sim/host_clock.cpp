// [host-clock] fixture: violating wall-clock reads — in a free function and
// in host-profiling scopes, which the core no longer exempts — and one read
// waived by comment. Self-contained so both the internal frontend and
// libclang can process it without project includes.
#include <chrono>

namespace vmlp::sim {

// A host-profiling scope inside the core is flagged like any other read:
// policy timing belongs outside it (exp::TimedScheduler).
class PolicyScope {
 public:
  void begin() { start_ = std::chrono::steady_clock::now(); }  // VIOLATION: host-clock

 private:
  std::chrono::steady_clock::time_point start_;
};

class Driver {
  class PolicyScope;
};

// Out-of-line nested scope, shaped like the driver's old one: the clock read
// after the lambda in the destructor is flagged too.
class Driver::PolicyScope {
 public:
  ~PolicyScope() {
    const auto ns = [](long long count) { return count / 1000; };
    const auto end = std::chrono::steady_clock::now();  // VIOLATION: host-clock
    end_us_ = ns(end.time_since_epoch().count());
  }

 private:
  long long end_us_ = 0;
};

long long stamp_decision() {
  auto now = std::chrono::steady_clock::now();  // VIOLATION: host-clock
  return now.time_since_epoch().count();
}

long long waived_epoch() {
  // analyze: allow(host-clock): fixture demonstrating the waiver syntax.
  auto now = std::chrono::system_clock::now();
  return now.time_since_epoch().count();
}

}  // namespace vmlp::sim
