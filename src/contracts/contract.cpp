#include "contracts/contract.hpp"

#include <algorithm>

namespace orte::contracts {

const FlowSpec* Contract::assumption(std::string_view flow) const {
  for (const auto& a : assumptions) {
    if (a.flow == flow) return &a;
  }
  return nullptr;
}

const FlowSpec* Contract::guarantee(std::string_view flow) const {
  for (const auto& g : guarantees) {
    if (g.flow == flow) return &g;
  }
  return nullptr;
}

const FlowSpec* Contract::flow_spec(std::string_view port,
                                    std::string_view element,
                                    bool assumption) const {
  const auto find = [&](std::string_view flow) {
    return assumption ? this->assumption(flow) : guarantee(flow);
  };
  const FlowSpec* f = find(std::string(port) + "." + std::string(element));
  return f != nullptr ? f : find(port);
}

void CheckResult::merge(const CheckResult& other) {
  ok = ok && other.ok;
  confidence = std::min(confidence, other.confidence);
  violations.insert(violations.end(), other.violations.begin(),
                    other.violations.end());
}

void CheckResult::violation(std::string msg) {
  ok = false;
  violations.push_back(std::move(msg));
}

CheckResult satisfies(const FlowSpec& g, const FlowSpec& a) {
  CheckResult r;
  r.confidence = std::min(g.confidence, a.confidence);
  if (!a.range.contains(g.range)) {
    r.violation("flow " + a.flow + ": guaranteed range [" +
                std::to_string(g.range.lo) + "," + std::to_string(g.range.hi) +
                "] exceeds assumed range [" + std::to_string(a.range.lo) +
                "," + std::to_string(a.range.hi) + "]");
  }
  // For each timing bound the sink demands, the source must offer a bound at
  // least as tight; an unspecified (0) offer cannot discharge a demand.
  const auto check_bound = [&](Duration demanded, Duration offered,
                               const char* what) {
    if (demanded > 0 && (offered == 0 || offered > demanded)) {
      r.violation("flow " + a.flow + ": guaranteed " + what + " " +
                  std::to_string(offered) + "ns does not meet assumed " +
                  std::to_string(demanded) + "ns");
    }
  };
  check_bound(a.timing.period, g.timing.period, "period");
  check_bound(a.timing.jitter, g.timing.jitter, "jitter");
  check_bound(a.timing.latency, g.timing.latency, "latency");
  return r;
}

namespace {
/// spec `s` is weaker than or equal to `t` (as an assumption): every
/// environment satisfying t also satisfies s.
bool weaker_or_equal(const FlowSpec& s, const FlowSpec& t) {
  // Wider accepted range, larger-or-unconstrained timing demands.
  if (!s.range.contains(t.range)) return false;
  const auto weaker_bound = [](Duration mine, Duration theirs) {
    // 0 = unconstrained = weakest.
    if (mine == 0) return true;
    if (theirs == 0) return false;
    return mine >= theirs;
  };
  return weaker_bound(s.timing.period, t.timing.period) &&
         weaker_bound(s.timing.jitter, t.timing.jitter) &&
         weaker_bound(s.timing.latency, t.timing.latency);
}

/// spec `s` is stronger than or equal to `t` (as a guarantee).
bool stronger_or_equal(const FlowSpec& s, const FlowSpec& t) {
  if (!t.range.contains(s.range)) return false;
  const auto stronger_bound = [](Duration mine, Duration theirs) {
    if (theirs == 0) return true;  // nothing promised by the abstract side
    if (mine == 0) return false;   // abstract promises, refined does not
    return mine <= theirs;
  };
  return stronger_bound(s.timing.period, t.timing.period) &&
         stronger_bound(s.timing.jitter, t.timing.jitter) &&
         stronger_bound(s.timing.latency, t.timing.latency);
}
}  // namespace

bool dominates(const Contract& refined, const Contract& abstract) {
  // Every abstract assumption must be matched by a weaker-or-equal refined
  // assumption on the same flow (the refined component asks for no more)...
  for (const auto& a_abs : abstract.assumptions) {
    const FlowSpec* a_ref = refined.assumption(a_abs.flow);
    if (a_ref == nullptr) continue;  // refined assumes nothing: weaker
    if (!weaker_or_equal(*a_ref, a_abs)) return false;
  }
  // ...and a refined assumption on a flow the abstract side left free is a
  // strengthening, hence forbidden.
  for (const auto& a_ref : refined.assumptions) {
    if (abstract.assumption(a_ref.flow) == nullptr) return false;
  }
  // Every abstract guarantee must be met or exceeded by the refinement.
  for (const auto& g_abs : abstract.guarantees) {
    const FlowSpec* g_ref = refined.guarantee(g_abs.flow);
    if (g_ref == nullptr) return false;
    if (!stronger_or_equal(*g_ref, g_abs)) return false;
  }
  return true;
}

}  // namespace orte::contracts
