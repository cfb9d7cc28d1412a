// Structured diagnostics for the static model validator (§2–§3: design-time
// reliability — "prior to implementation system configuration checks").
//
// Unlike the first-error-wins throws the VFB layer grew up with, a
// Diagnostics report accumulates *every* violation the analysis finds, each
// carrying a stable rule ID (V1..V7), a severity, the model path it is about
// ("instance.runnable.access" style), a message and a fix hint. Strict-mode
// consumers (System generation) render the report into one exception;
// interactive consumers (linters, CI) iterate and filter it.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace orte::validation {

enum class Severity {
  kError,    ///< Model cannot be generated / would misbehave; strict mode throws.
  kWarning,  ///< Generation succeeds but the model carries a likely hazard.
  kInfo,     ///< Dead or degenerate model structure worth knowing about.
};

[[nodiscard]] std::string_view to_string(Severity severity);

struct Diagnostic {
  std::string rule;      ///< Stable rule ID, e.g. "V4".
  Severity severity = Severity::kError;
  std::string subject;   ///< Model path, e.g. "k.consume.in.val".
  std::string message;   ///< What is wrong.
  std::string hint;      ///< How to fix it; may be empty.
};

/// Ordered collection of diagnostics plus rendering / filtering helpers.
class Diagnostics {
 public:
  void add(std::string rule, Severity severity, std::string subject,
           std::string message, std::string hint = {});

  [[nodiscard]] const std::vector<Diagnostic>& all() const { return diags_; }
  [[nodiscard]] bool empty() const { return diags_.empty(); }
  [[nodiscard]] std::size_t size() const { return diags_.size(); }
  [[nodiscard]] std::size_t count(Severity severity) const;
  [[nodiscard]] bool has_errors() const {
    return count(Severity::kError) > 0;
  }
  /// Diagnostics carrying the given rule ID, in report order. The returned
  /// pointers alias this container's storage: any subsequent add()
  /// invalidates them — re-query instead of caching across mutations.
  [[nodiscard]] std::vector<const Diagnostic*> by_rule(
      std::string_view rule) const;
  /// Distinct rule IDs present, in first-appearance order.
  [[nodiscard]] std::vector<std::string> rules() const;

  /// Multi-line human-readable report, led by a one-line summary
  /// ("N errors, M warnings, K infos"):
  ///   error[V1] p.out: message (hint: ...)
  /// Errors render first, then warnings, then infos; within each severity
  /// diagnostics sort by rule ID (natural order, V2 before V10), insertion
  /// order within one rule. Empty report renders as the empty string.
  [[nodiscard]] std::string render() const;

 private:
  std::vector<Diagnostic> diags_;
};

}  // namespace orte::validation
