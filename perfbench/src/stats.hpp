// Sample statistics the benchmark reports: medians, nearest-rank
// percentiles and the tail rule (the highest percentile with at least ten
// samples beyond it), plus the attempted/failed tally behind failed_frac.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Number of sorted samples at or below the nearest-rank p-th percentile.
inline std::size_t nearest_rank(std::size_t n, double p) {
  const auto r = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(r, 1, n);
}

/// Nearest-rank p-th percentile (p in (0, 100]); 0 for no samples.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[nearest_rank(v.size(), p) - 1];
}

struct TailPoint {
  double percentile = 0;  // which percentile `value` is
  double value = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  // samples ranked above the percentile
  bool rule_met = false;   // beyond >= kMinBeyond
};

inline constexpr std::size_t kMinBeyond = 10;

/// The tail rule: the highest nearest-rank percentile with at least
/// kMinBeyond samples ranked beyond it. That is the (kMinBeyond + 1)-th
/// largest sample, at percentile 100 * (n - kMinBeyond) / n, so the
/// percentile moves smoothly with the sample count. With kMinBeyond or
/// fewer samples no percentile qualifies, and the median is returned with
/// rule_met = false.
inline TailPoint tail_percentile(std::vector<double> samples) {
  TailPoint t;
  const std::size_t n = samples.size();
  t.samples = n;
  if (n == 0) return t;
  std::sort(samples.begin(), samples.end());
  const std::size_t rank =
      n > kMinBeyond ? n - kMinBeyond : nearest_rank(n, 50);
  t.rule_met = n > kMinBeyond;
  t.percentile = t.rule_met ? 100.0 * static_cast<double>(rank) /
                                  static_cast<double>(n)
                            : 50;
  t.beyond = n - rank;
  t.value = samples[rank - 1];
  return t;
}

/// Read-request metrics over every timed request of a run.
struct RequestSummary {
  double served_qps = 0;  // queries answered / summed request wall
  double p50 = 0;         // median request wall
  TailPoint tail;         // tail_percentile of the request walls
};

/// Summarise requests given as wall seconds and queries answered, one
/// entry each.
inline RequestSummary summarize_requests(const std::vector<double>& wall,
                                         const std::vector<double>& answered) {
  RequestSummary s;
  double secs = 0, done = 0;
  for (std::size_t i = 0; i < wall.size(); ++i) {
    secs += wall[i];
    done += answered[i];
  }
  s.served_qps = secs > 0 ? done / secs : 0.0;
  s.p50 = median(wall);
  s.tail = tail_percentile(wall);
  return s;
}

/// Operations attempted and failed. A wrong answer, a shed or expired
/// query, or a call that threw counts as a failed operation.
struct OpTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

}  // namespace perfbench
