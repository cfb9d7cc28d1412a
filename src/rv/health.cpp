#include "rv/health.hpp"

#include <cmath>

namespace orte::rv {

std::uint64_t HealthReport::ContractStats::tolerated() const {
  if (confidence >= 1.0) return 0;
  const double allowance =
      (1.0 - confidence) * static_cast<double>(window_observations());
  // The epsilon keeps budgets like (1 - 0.999) * 1000 == 1 exact despite
  // the binary representation of the confidence.
  return static_cast<std::uint64_t>(std::floor(allowance + 1e-9));
}

void HealthReport::record(const Violation& v) {
  violations_.push_back(v);
  if (violations_.size() > kRetention) violations_.pop_front();
  ++total_;
  ContractStats& stats = contract_stats_[v.contract];
  ++stats.violating;
  if (v.confidence < stats.confidence) stats.confidence = v.confidence;
}

void HealthReport::note_observations(std::string_view contract,
                                     std::uint64_t total, double confidence) {
  auto it = contract_stats_.find(contract);
  if (it == contract_stats_.end()) {
    it = contract_stats_.emplace(std::string(contract), ContractStats{}).first;
  }
  ContractStats& stats = it->second;
  // Monitor observation counts are cumulative; never move backwards.
  if (total > stats.observations) stats.observations = total;
  if (confidence < stats.confidence) stats.confidence = confidence;
}

void HealthReport::close_window(std::string_view contract) {
  auto it = contract_stats_.find(contract);
  if (it == contract_stats_.end()) return;
  it->second.window_base_violating = it->second.violating;
  it->second.window_base_observations = it->second.observations;
}

void HealthReport::close_windows() {
  for (auto& [contract, stats] : contract_stats_) {
    stats.window_base_violating = stats.violating;
    stats.window_base_observations = stats.observations;
  }
}

const HealthReport::ContractStats* HealthReport::stats(
    std::string_view contract) const {
  auto it = contract_stats_.find(contract);
  return it == contract_stats_.end() ? nullptr : &it->second;
}

}  // namespace orte::rv
