#include "validation/diagnostics.hpp"

#include <algorithm>

namespace orte::validation {

std::string_view to_string(Severity severity) {
  switch (severity) {
    case Severity::kError:
      return "error";
    case Severity::kWarning:
      return "warning";
    case Severity::kInfo:
      return "info";
  }
  return "unknown";
}

void Diagnostics::add(std::string rule, Severity severity, std::string subject,
                      std::string message, std::string hint) {
  diags_.push_back(Diagnostic{std::move(rule), severity, std::move(subject),
                              std::move(message), std::move(hint)});
}

std::size_t Diagnostics::count(Severity severity) const {
  return static_cast<std::size_t>(
      std::count_if(diags_.begin(), diags_.end(), [severity](const auto& d) {
        return d.severity == severity;
      }));
}

std::vector<const Diagnostic*> Diagnostics::by_rule(
    std::string_view rule) const {
  std::vector<const Diagnostic*> out;
  for (const auto& d : diags_) {
    if (d.rule == rule) out.push_back(&d);
  }
  return out;
}

std::vector<std::string> Diagnostics::rules() const {
  std::vector<std::string> out;
  for (const auto& d : diags_) {
    if (std::find(out.begin(), out.end(), d.rule) == out.end()) {
      out.push_back(d.rule);
    }
  }
  return out;
}

std::string Diagnostics::render() const {
  if (diags_.empty()) return {};
  const auto plural = [](std::size_t n, const char* noun) {
    return std::to_string(n) + " " + noun + (n == 1 ? "" : "s");
  };
  std::string out = plural(count(Severity::kError), "error") + ", " +
                    plural(count(Severity::kWarning), "warning") + ", " +
                    plural(count(Severity::kInfo), "info") + "\n";
  // Stable presentation order: severity first, then rule ID (natural order —
  // V2 before V10), insertion order within one rule.
  std::vector<const Diagnostic*> sorted;
  sorted.reserve(diags_.size());
  for (const auto& d : diags_) sorted.push_back(&d);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Diagnostic* a, const Diagnostic* b) {
                     if (a->rule.size() != b->rule.size()) {
                       return a->rule.size() < b->rule.size();
                     }
                     return a->rule < b->rule;
                   });
  for (const Severity sev :
       {Severity::kError, Severity::kWarning, Severity::kInfo}) {
    for (const auto* dp : sorted) {
      const auto& d = *dp;
      if (d.severity != sev) continue;
      out.append(to_string(sev));
      out.push_back('[');
      out.append(d.rule);
      out.append("] ");
      out.append(d.subject);
      out.append(": ");
      out.append(d.message);
      if (!d.hint.empty()) {
        out.append(" (hint: ");
        out.append(d.hint);
        out.push_back(')');
      }
      out.push_back('\n');
    }
  }
  return out;
}

}  // namespace orte::validation
