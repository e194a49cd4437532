// Sample statistics and checksums of the repository benchmark. Header-only
// so the self-test (perfbench --self-test) exercises exactly the code the
// measured runs use.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile, q in (0, 1]: the smallest sample such that at
/// least q * n samples are <= it. NaN on an empty sample.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  const double n = static_cast<double>(v.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1),
                   v.end());
  return v[rank - 1];
}

/// Median; the mean of the two middle samples when n is even.
inline double Median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
  const double upper = v[mid];
  if (v.size() % 2 == 1) return upper;
  const double lower = *std::max_element(v.begin(),
                                         v.begin() + static_cast<long>(mid));
  return (lower + upper) / 2;
}

/// The mean over an op mix of each op's class minimum: the sum of
/// n_c * min(samples_c) over classes c, divided by the sum of n_c. It
/// prices every op at the fastest its class ran in the run. NaN when no
/// class has samples.
template <typename Classes>
double ClassMinMean(const Classes& classes) {
  double sum = 0;
  double n = 0;
  for (const auto& [key, samples] : classes) {
    if (samples.empty()) continue;
    sum += static_cast<double>(samples.size()) *
           *std::min_element(samples.begin(), samples.end());
    n += static_cast<double>(samples.size());
  }
  return n > 0 ? sum / n : std::numeric_limits<double>::quiet_NaN();
}

/// Element-wise difference a[i] - b[i] (equal lengths).
inline std::vector<double> Diff(const std::vector<double>& a,
                                const std::vector<double>& b) {
  std::vector<double> out(a.size());
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

/// SplitMix64 finalizer: a bijective 64-bit mix.
inline uint64_t Mix64(uint64_t x) {
  x += UINT64_C(0x9E3779B97F4A7C15);
  x = (x ^ (x >> 30)) * UINT64_C(0xBF58476D1CE4E5B9);
  x = (x ^ (x >> 27)) * UINT64_C(0x94D049BB133111EB);
  return x ^ (x >> 31);
}

/// Order-independent checksum of a keyed row set: the wrapping sum of one
/// mixed value per (key, payload hash). Adding rows in any order gives the
/// same result; a changed key or payload changes it.
class Checksum {
 public:
  void Add(int64_t key, uint64_t payload_hash) {
    sum_ += Mix64(static_cast<uint64_t>(key) ^ Mix64(payload_hash));
    ++count_;
  }
  uint64_t sum() const { return sum_; }
  int64_t count() const { return count_; }
  bool operator==(const Checksum& other) const {
    return sum_ == other.sum_ && count_ == other.count_;
  }

 private:
  uint64_t sum_ = 0;
  int64_t count_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
