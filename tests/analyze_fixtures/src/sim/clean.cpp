// Clean fixture: every construct here skirts a rule without violating it.
// The analyzer must report nothing for this TU.
#include <map>
#include <unordered_map>

namespace vmlp {

class Rng {
 public:
  explicit Rng(unsigned long long seed);
  double uniform();
};

namespace sim {

class Accumulator {
 public:
  double ordered_total() const {
    double total = 0.0;
    for (const auto& entry : ordered_) total += entry.second;  // std::map: stable
    return total;
  }

  int unordered_count() const {
    int n = 0;
    for (const auto& entry : histogram_) n += entry.second;  // order never escapes
    return n;
  }

 private:
  std::map<int, double> ordered_;
  std::unordered_map<int, int> histogram_;
};

double spend(Rng&& sink) { return sink.uniform(); }  // sink signature: fine
double peek(const Rng& observer);                    // observer signature: fine

long long runtime_limit(long long timeout) { return timeout; }  // 'time' substring

}  // namespace sim
}  // namespace vmlp
