// evps-lint — offline static analysis of subscription scenarios.
//
// Runs the same subscribe-time analysis the broker applies
// (analysis/analyzer.hpp) over a scenario file, printing one verdict per
// subscription plus caret diagnostics for parse failures. Exits nonzero when
// any subscription is malformed, unsatisfiable (per-attribute or relational —
// see analysis/relational.hpp), or fails to parse, so the tool slots into CI
// and pre-deployment checks. Relationally-redundant subscriptions (a
// predicate entailed by the others) are warnings.
//
// Options:
//   --covering   also run the pairwise covering analysis
//                (analysis/covering.hpp) and warn about subscriptions whose
//                publications are provably contained in an earlier one —
//                redundant for covering-based routing.
//   --json       machine-readable report on stdout (one JSON object; human
//                text and caret diagnostics are suppressed).
//   --werror     treat warnings (ad-uncovered / relationally-redundant
//                verdicts, covering redundancy) as errors: they flip the
//                exit code to 1.
//
// Exit codes: 0 = clean (warnings allowed unless --werror), 1 = at least one
// error (or warning under --werror), 2 = usage or file I/O problem.
//
// Scenario format (one directive per line, '#' starts a comment):
//
//   var <name> in [<lo>, <hi>]          declare an evolution-variable range
//   var <name> = <value> in [<lo>, <hi>]    ... and set its current value
//   adv <pred> [; <pred>]...            an advertisement (codec predicates)
//   sub <subscription>                  a subscription (codec text language)
//
// Example:
//   var load in [0, 1]
//   adv price >= 0; price <= 100
//   sub [tt=0.5] price <= 120 + 10 * load; price >= 150
//
// prints "unsatisfiable" for the subscription (price cannot exceed 130 yet
// must reach 150) and exits 1.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/covering_index.hpp"
#include "analysis/scenario.hpp"
#include "common/sim_time.hpp"
#include "message/codec.hpp"

namespace {

using namespace evps;

struct Options {
  bool covering = false;
  bool json = false;
  bool werror = false;
};

struct Diagnostic {
  int line_no = 0;
  bool warning = false;  // false => error
  std::string message;
};

struct SubRecord {
  int index = 0;  // 1-based within the file
  int line_no = 0;
  std::string line;       // full source line (for caret diagnostics)
  std::size_t body_col = 0;
  std::string text;       // directive body as written
  Subscription sub;
  std::string verdict;
  std::string diagnostic;
  std::string folds_to;  // non-empty for constant folds
};

struct CoverFinding {
  int coverer = 0;  // sub index that covers
  int covered = 0;  // sub index made redundant
};

struct LintContext {
  std::string path;
  Options opts;
  VariableRegistry registry;
  std::vector<Advertisement> ads;
  std::vector<SubRecord> subs;
  std::vector<Diagnostic> diags;
  std::vector<CoverFinding> covering;
  int errors = 0;
  int warnings = 0;
};

/// Print "file:line: error: ..." followed by the offending line with a caret
/// under the bad token. `offset` is relative to `body`, which starts at
/// column `body_col` of `line`. Suppressed (recorded only) in JSON mode.
void caret_diagnostic(LintContext& ctx, int line_no, const std::string& line,
                      std::size_t body_col, std::size_t offset, const std::string& token,
                      const std::string& message, bool warning = false) {
  ctx.diags.push_back(Diagnostic{line_no, warning, message});
  if (warning) {
    ++ctx.warnings;
  } else {
    ++ctx.errors;
  }
  if (ctx.opts.json) return;
  std::cerr << ctx.path << ":" << line_no << ": " << (warning ? "warning: " : "error: ")
            << message << "\n";
  std::cerr << "  " << line << "\n";
  std::cerr << "  " << std::string(body_col + offset, ' ') << '^'
            << std::string(token.size() > 1 ? token.size() - 1 : 0, '~') << "\n";
}

/// `var <name> [= <value>] in [<lo>, <hi>]` — syntax already validated by
/// parse_scenario; only the registry's semantic checks can fail here.
void handle_var(LintContext& ctx, const ScenarioDirective& d) {
  try {
    ctx.registry.declare_range(d.var_name, d.var_lo, d.var_hi);
    if (d.var_has_value) ctx.registry.set(d.var_name, d.var_value, SimTime::zero());
  } catch (const std::invalid_argument& e) {
    caret_diagnostic(ctx, d.line_no, d.line, 0, 0, "", e.what());
  }
}

void handle_adv(LintContext& ctx, const ScenarioDirective& d) {
  // Metadata options make no sense on an advertisement and are rejected
  // upstream; the predicate list reuses the subscription grammar.
  ctx.ads.emplace_back(MessageId{static_cast<std::uint64_t>(ctx.ads.size() + 1)}, ClientId{0},
                       d.sub.predicates());
}

void handle_sub(LintContext& ctx, const ScenarioDirective& d) {
  SubRecord rec;
  rec.sub = d.sub;
  rec.index = static_cast<int>(ctx.subs.size()) + 1;
  rec.line_no = d.line_no;
  rec.line = d.line;
  rec.body_col = d.body_col;
  rec.text = d.body;
  rec.sub.set_id(SubscriptionId{static_cast<std::uint64_t>(rec.index)});

  std::vector<const Advertisement*> ads;
  ads.reserve(ctx.ads.size());
  for (const Advertisement& adv : ctx.ads) ads.push_back(&adv);
  const SubscriptionAnalysis analysis = analyze_subscription(rec.sub, ctx.registry, ads);
  rec.verdict = to_string(analysis.verdict);
  rec.diagnostic = analysis.diagnostic;
  if (analysis.verdict == Verdict::kConstant && analysis.folded.has_value()) {
    rec.folds_to = serialize(*analysis.folded);
  }

  if (!ctx.opts.json) {
    std::cout << ctx.path << ":" << rec.line_no << ": sub " << rec.index << ": " << rec.verdict;
    if (!rec.diagnostic.empty()) std::cout << " — " << rec.diagnostic;
    std::cout << "\n";
    if (!rec.folds_to.empty()) std::cout << "    folds to: " << rec.folds_to << "\n";
  }
  if (analysis.verdict == Verdict::kMalformed || analysis.verdict == Verdict::kUnsatisfiable ||
      analysis.verdict == Verdict::kRelUnsatisfiable) {
    ++ctx.errors;
    ctx.diags.push_back(Diagnostic{rec.line_no, false, rec.verdict + ": " + rec.diagnostic});
  } else if (analysis.verdict == Verdict::kAdUncovered ||
             analysis.verdict == Verdict::kRelRedundant) {
    // Installable but suboptimal: a warning (fails under --werror).
    ++ctx.warnings;
    ctx.diags.push_back(Diagnostic{rec.line_no, true, rec.verdict + ": " + rec.diagnostic});
  }
  ctx.subs.push_back(std::move(rec));
}

/// Covering pass (--covering): warn about every subscription whose
/// publication set is provably contained in another's — it is redundant for
/// covering-based routing (the broker would suppress its dissemination).
///
/// Runs on the same incremental CoveringIndex the brokers use, inserting the
/// subscriptions in file order against the final variable state: a parent
/// edge means the new subscription is covered by an existing root, a
/// demotion means the new subscription covers earlier roots. Each covered
/// subscription yields exactly one finding (its forest parent), and an
/// equivalence class keeps its earliest member as the representative — same
/// semantics as the old O(n²) pairwise scan at O(n · candidate) cost.
void covering_report(LintContext& ctx) {
  CoveringIndex index;
  std::vector<CoverFinding> findings;
  for (const SubRecord& rec : ctx.subs) {
    const CoveringIndex::AddResult result =
        index.add(rec.sub.id(), summarize(rec.sub, ctx.registry));
    if (result.parent.valid()) {
      findings.push_back(CoverFinding{static_cast<int>(result.parent.value()), rec.index});
    }
    for (const SubscriptionId demoted : result.demoted) {
      findings.push_back(CoverFinding{rec.index, static_cast<int>(demoted.value())});
    }
  }
  // Report in file order of the covered subscription, like the old scan.
  std::sort(findings.begin(), findings.end(),
            [](const CoverFinding& a, const CoverFinding& b) { return a.covered < b.covered; });
  for (const CoverFinding& f : findings) {
    const SubRecord& covered = ctx.subs[static_cast<std::size_t>(f.covered) - 1];
    const SubRecord& coverer = ctx.subs[static_cast<std::size_t>(f.coverer) - 1];
    ctx.covering.push_back(f);
    caret_diagnostic(ctx, covered.line_no, covered.line, covered.body_col, 0, covered.text,
                     "sub " + std::to_string(covered.index) + " is covered by sub " +
                         std::to_string(coverer.index) + " (line " +
                         std::to_string(coverer.line_no) +
                         "): redundant for covering-based routing",
                     /*warning=*/true);
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void print_json(const LintContext& ctx, int exit_code, std::ostream& os) {
  os << "{\"path\":\"" << json_escape(ctx.path) << "\",\"exit\":" << exit_code
     << ",\"errors\":" << ctx.errors << ",\"warnings\":" << ctx.warnings
     << ",\"subscriptions\":[";
  for (std::size_t i = 0; i < ctx.subs.size(); ++i) {
    const SubRecord& rec = ctx.subs[i];
    if (i != 0) os << ",";
    os << "{\"index\":" << rec.index << ",\"line\":" << rec.line_no << ",\"text\":\""
       << json_escape(rec.text) << "\",\"verdict\":\"" << json_escape(rec.verdict) << "\"";
    if (!rec.diagnostic.empty()) os << ",\"diagnostic\":\"" << json_escape(rec.diagnostic) << "\"";
    if (!rec.folds_to.empty()) os << ",\"folds_to\":\"" << json_escape(rec.folds_to) << "\"";
    os << "}";
  }
  os << "],\"diagnostics\":[";
  for (std::size_t i = 0; i < ctx.diags.size(); ++i) {
    const Diagnostic& d = ctx.diags[i];
    if (i != 0) os << ",";
    os << "{\"line\":" << d.line_no << ",\"severity\":\"" << (d.warning ? "warning" : "error")
       << "\",\"message\":\"" << json_escape(d.message) << "\"}";
  }
  os << "],\"covering\":[";
  for (std::size_t i = 0; i < ctx.covering.size(); ++i) {
    if (i != 0) os << ",";
    os << "{\"coverer\":" << ctx.covering[i].coverer << ",\"covered\":" << ctx.covering[i].covered
       << "}";
  }
  os << "]}\n";
}

int lint_file(const std::string& path, const Options& opts) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "evps-lint: cannot open " << path << "\n";
    return 2;
  }
  LintContext ctx;
  ctx.path = path;
  ctx.opts = opts;
  std::stringstream buffer;
  buffer << in.rdbuf();
  // Syntax via the shared scenario front end (analysis/scenario.hpp);
  // directives replay in file order so each subscription is analyzed
  // against only the vars/ads that appeared above it.
  const Scenario scenario = parse_scenario(buffer.str());
  for (const ScenarioDirective& d : scenario.directives) {
    switch (d.kind) {
      case ScenarioDirective::Kind::kVar:
        handle_var(ctx, d);
        break;
      case ScenarioDirective::Kind::kAdv:
        handle_adv(ctx, d);
        break;
      case ScenarioDirective::Kind::kSub:
        handle_sub(ctx, d);
        break;
      case ScenarioDirective::Kind::kError:
        caret_diagnostic(ctx, d.line_no, d.line, d.body_col, d.error_offset, d.error_token,
                         d.error_message);
        break;
    }
  }
  if (opts.covering) covering_report(ctx);

  const bool failed = ctx.errors != 0 || (opts.werror && ctx.warnings != 0);
  const int rc = failed ? 1 : 0;
  if (opts.json) {
    print_json(ctx, rc, std::cout);
    return rc;
  }
  std::cout << path << ": " << ctx.subs.size() << " subscription(s), " << ctx.errors
            << " error(s), " << ctx.warnings << " warning(s)";
  if (opts.werror && ctx.errors == 0 && ctx.warnings != 0) std::cout << " [--werror]";
  std::cout << "\n";
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--covering") {
      opts.covering = true;
    } else if (arg == "--json") {
      opts.json = true;
    } else if (arg == "--werror") {
      opts.werror = true;
    } else if (arg == "--help" || arg == "-h") {
      paths.clear();
      break;
    } else if (!arg.empty() && arg.front() == '-') {
      std::cerr << "evps-lint: unknown option " << arg << "\n";
      return 2;
    } else {
      paths.emplace_back(arg);
    }
  }
  if (paths.empty()) {
    std::cerr << "usage: evps-lint [--covering] [--json] [--werror] <scenario>...\n"
              << "Statically analyzes subscription scenarios; see tools/evps_lint.cpp\n"
              << "for the scenario format.\n"
              << "  --covering  warn about subscriptions covered by another (redundant)\n"
              << "  --json      machine-readable report on stdout\n"
              << "  --werror    warnings (uncovered/covering) become errors\n"
              << "Exit codes: 0 clean, 1 problems found, 2 usage/IO error.\n";
    return 2;
  }
  int rc = 0;
  for (const std::string& path : paths) {
    rc = std::max(rc, lint_file(path, opts));
  }
  return rc;
}
