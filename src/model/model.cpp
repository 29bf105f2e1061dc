#include "model/model.hpp"

#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>

#include "analysis/reuse.hpp"
#include "ir/affine.hpp"
#include "ir/error.hpp"
#include "ir/stmt.hpp"

namespace blk::model {

using namespace blk::ir;

namespace {

[[nodiscard]] std::size_t parse_size(const std::string& tok,
                                     const std::string& whole) {
  if (tok.empty())
    throw Error("parse_cache_config: empty field in '" + whole + "'");
  std::size_t pos = 0;
  while (pos < tok.size() &&
         std::isdigit(static_cast<unsigned char>(tok[pos])))
    ++pos;
  if (pos == 0)
    throw Error("parse_cache_config: expected a number in '" + whole + "'");
  std::size_t value = std::stoull(tok.substr(0, pos));
  std::string suffix = tok.substr(pos);
  for (char& c : suffix) c = static_cast<char>(std::toupper(c));
  if (suffix == "K" || suffix == "KB")
    value *= 1024;
  else if (suffix == "M" || suffix == "MB")
    value *= 1024 * 1024;
  else if (!suffix.empty() && suffix != "B")
    throw Error("parse_cache_config: bad size suffix '" + suffix + "' in '" +
                whole + "'");
  return value;
}

[[nodiscard]] long ceil_to(long bytes, long granule) {
  return (bytes + granule - 1) / granule * granule;
}

}  // namespace

cachesim::CacheConfig parse_cache_config(const std::string& s) {
  std::vector<std::string> fields;
  std::istringstream is(s);
  std::string item;
  while (std::getline(is, item, '/')) fields.push_back(item);
  if (fields.size() != 3)
    throw Error("parse_cache_config: expected SIZE/LINE/ASSOC, got '" + s +
                "'");
  cachesim::CacheConfig cfg;
  cfg.size_bytes = parse_size(fields[0], s);
  cfg.line_bytes = parse_size(fields[1], s);
  cfg.assoc = parse_size(fields[2], s);
  if (cfg.line_bytes == 0 || cfg.assoc == 0 ||
      cfg.size_bytes < cfg.line_bytes * cfg.assoc)
    throw Error("parse_cache_config: degenerate geometry '" + s + "'");
  return cfg;
}

long probe_size(const MachineParams& machine) {
  const double target = 2.0 *
                        static_cast<double>(machine.l1().size_bytes) /
                        static_cast<double>(machine.element_bytes);
  long probe = 16;
  while (static_cast<double>(probe) * static_cast<double>(probe) < target &&
         probe < 512)
    probe += 16;
  return probe;
}

long FootprintTerm::span(std::size_t dim, long ks, const ir::Env& env) const {
  const DimSpan& d = dims[dim];
  long s = 1 + d.ks_coef * (ks - 1) + d.fixed;
  for (const auto& [extent, coef] : d.dyn) {
    long ext = 1;
    try {
      ext = std::max(1L, ir::evaluate(extent, env));
    } catch (const Error&) {
      // Unresolvable extent (runtime scalar bound): no span contribution
      // beyond the conservative `fixed` part already accumulated.
    }
    s += coef * (ext - 1);
  }
  return std::max(1L, s);
}

long AnalyticModel::footprint_bytes(long ks) const {
  ir::Env e = env;
  e[ks_name] = ks;
  long total = 0;
  const long line = static_cast<long>(line_bytes);
  for (const FootprintTerm& t : terms) {
    if (t.streaming) {
      total += line;
      continue;
    }
    // Dimension 0 is contiguous (column-major): round to line granularity.
    long bytes = t.dims.empty()
                     ? static_cast<long>(element_bytes)
                     : ceil_to(t.span(0, ks, e) *
                                   static_cast<long>(element_bytes),
                               line);
    for (std::size_t d = 1; d < t.dims.size(); ++d) bytes *= t.span(d, ks, e);
    total += bytes;
  }
  return total;
}

long AnalyticModel::largest_fitting(long lo, long hi) const {
  if (hi < lo) return lo;
  if (footprint_bytes(lo) > static_cast<long>(budget_bytes)) return lo;
  // footprint is monotone non-decreasing in ks: binary-search the knee.
  long best = lo;
  while (lo <= hi) {
    long mid = lo + (hi - lo) / 2;
    if (footprint_bytes(mid) <= static_cast<long>(budget_bytes)) {
      best = mid;
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  return best;
}

long AnalyticModel::pick() const {
  return largest_fitting(2, std::max(2L, trip));
}

std::vector<long> AnalyticModel::candidates() const {
  const long hi = std::max(2L, trip);
  const long base = pick();
  std::set<long> set;
  for (long k : {base / 4, base / 2, base, base * 3 / 2, base * 2, base * 3,
                 base * 4})
    set.insert(std::clamp(k, 2L, hi));
  return {set.begin(), set.end()};
}

AnalyticModel build_analytic_model(StmtList& root, Loop& focus,
                                   const std::string& ks_name,
                                   const ir::Env& probe_env,
                                   const MachineParams& machine) {
  AnalyticModel m;
  m.ks_name = ks_name;
  m.line_bytes = machine.l1().line_bytes;
  m.element_bytes = machine.element_bytes;
  m.budget_bytes =
      kEffectiveFraction * static_cast<double>(machine.l1().size_bytes);

  // Bind every loop variable of the nest to its lower bound, outermost
  // first, so symbolic extents (N - K, MIN(K+KS-1, N-1) - K + 1) evaluate
  // to their maximum over the iteration space.
  m.env = probe_env;
  for_each_stmt(root, [&](Stmt& s) {
    if (s.kind() != SKind::Loop) return;
    Loop& l = s.as_loop();
    try {
      m.env[l.var] = ir::evaluate(l.lb, m.env);
    } catch (const Error&) {
      m.env[l.var] = 1;
    }
  });

  try {
    m.trip = std::max(1L, ir::evaluate(focus.ub, m.env) -
                              ir::evaluate(focus.lb, m.env) + 1);
  } catch (const Error&) {
    m.trip = 2;
  }

  const long line_elements = std::max(
      1L, static_cast<long>(m.line_bytes / std::max<std::size_t>(
                                               1, m.element_bytes)));
  std::vector<analysis::LoopReuse> reuse =
      analysis::analyze_reuse(root, line_elements);
  const analysis::LoopReuse* focus_reuse = nullptr;
  for (const analysis::LoopReuse& lr : reuse)
    if (lr.loop == &focus) focus_reuse = &lr;
  if (!focus_reuse) throw Error("build_analytic_model: focus not in root");

  std::set<std::string> seen;
  for (const analysis::RefReuse& rr : focus_reuse->refs) {
    const analysis::RefInfo& ref = rr.ref;
    FootprintTerm term;
    term.array = ref.array;
    term.reuse = analysis::to_string(rr.kind);
    std::string subs_text;
    for (const auto& sub : ref.subs) {
      if (!subs_text.empty()) subs_text += ",";
      subs_text += ir::to_string(sub);
    }
    term.subscripts = subs_text;
    if (!seen.insert(term.array + "(" + subs_text + ")").second)
      continue;  // a read and a write of the same region share one term

    bool ks_dependent = false;
    for (const auto& sub : ref.subs) {
      FootprintTerm::DimSpan d;
      auto f = as_affine(*sub);
      if (!f) {
        // MIN/MAX subscript: conservative — the whole dimension may be
        // touched if the blocked variable is involved at all.
        if (mentions(*sub, focus.var) || mentions(*sub, ks_name)) {
          d.ks_coef = 1;
          ks_dependent = true;
        }
        term.dims.push_back(std::move(d));
        continue;
      }
      for (const auto& [v, a] : f->coef) {
        const long coef = std::abs(a);
        if (v == focus.var || v == ks_name) {
          d.ks_coef += coef;
          continue;
        }
        // Resolve v against *this reference's* loop chain: loop-variable
        // names repeat across distributed nests (Fig. 11 has two KK
        // region loops), so a name-keyed map over the whole focus body
        // would conflate loops with very different extents.
        Loop* governing = nullptr;
        bool outer_bound = false;
        {
          bool past_focus = false;
          for (Loop* l : ref.loops) {
            if (l == &focus) {
              past_focus = true;
              continue;
            }
            if (l->var != v) continue;
            if (past_focus)
              governing = l;  // innermost match inside the focus
            else
              outer_bound = true;
          }
        }
        if (outer_bound && !governing)
          continue;  // fixed while the block executes: offset only
        if (governing) {
          Loop& l = *governing;
          IExprPtr extent = iadd(isub(l.ub, l.lb), iconst(1));
          if (mentions(*extent, ks_name)) {
            // An IN ... DO region loop: its extent tracks the factor —
            // but only a *growing* extent holds the block's reuse set.
            // A shrinking one (the trailing remainder, J = LAST(K)+1, N)
            // streams through the cache one iteration at a time and
            // contributes no resident span.
            bool grows = true;
            try {
              ir::Env lo = m.env, hi = m.env;
              lo[ks_name] = 2;
              hi[ks_name] = 4;
              grows = ir::evaluate(extent, hi) > ir::evaluate(extent, lo);
            } catch (const Error&) {
              // Unresolvable either way: keep the conservative dyn term.
            }
            if (grows) d.dyn.emplace_back(std::move(extent), coef);
            continue;
          }
          long ext = 1;
          try {
            ext = std::max(1L, ir::evaluate(extent, m.env));
          } catch (const Error&) {
            ext = m.trip;
          }
          d.fixed += coef * (ext - 1);
          continue;
        }
        if (probe_env.contains(v)) continue;  // parameter: fixed offset
        // Unknown runtime scalar (pivot row IMAX): conservatively the
        // whole probed extent.
        long worst = 1;
        for (const auto& [pname, pval] : probe_env)
          worst = std::max(worst, pval);
        d.fixed += coef * (worst - 1);
      }
      if (d.ks_coef != 0 || !d.dyn.empty()) ks_dependent = true;
      term.dims.push_back(std::move(d));
    }
    term.streaming = !ks_dependent;
    m.terms.push_back(std::move(term));
  }
  return m;
}

bool BlockChoice::within_tolerance(double tolerance) const {
  if (!swept || table.empty()) return true;
  // Guard the zero-optimum case with a small absolute allowance.
  return chosen_metric <= best_swept_metric * (1.0 + tolerance) + 1e-9;
}

std::string BlockChoice::to_string() const {
  std::ostringstream os;
  os << "auto-b: " << ks_name << " = " << ks << " (analytic " << analytic_ks
     << ", footprint " << analytic_footprint_bytes << "B of "
     << static_cast<long>(budget_bytes) << "B budget, probe " << probe
     << ")\n";
  if (swept) {
    os << "  " << metric_name << " sweep:\n";
    for (const Row& r : table) {
      char line[160];
      std::snprintf(line, sizeof line,
                    "    ks=%-4ld %s=%.6f  miss=%.4f  acc=%llu  pred=%ldB%s%s",
                    r.ks, metric_name.c_str(), r.metric, r.miss_ratio,
                    static_cast<unsigned long long>(r.accesses),
                    r.predicted_bytes, r.from_model ? "  [model]" : "",
                    r.ks == ks ? "  <== chosen" : "");
      os << line << "\n";
    }
    char tail[128];
    std::snprintf(tail, sizeof tail,
                  "  sweep optimum ks=%ld (%s=%.6f); chosen within 10%%: %s",
                  best_swept_ks, metric_name.c_str(), best_swept_metric,
                  within_tolerance() ? "yes" : "NO");
    os << tail << "\n";
    os << "  traces: " << (traces_synthesized ? "synthesized" : "recorded")
       << ", store " << store_hits << " hit/" << store_misses << " miss";
    if (sample_every > 1) {
      char samp[96];
      std::snprintf(samp, sizeof samp, ", sampled 1/%ld (probe delta %.6f)",
                    sample_every, sample_delta);
      os << samp;
    } else if (sample_validated) {
      char samp[96];
      std::snprintf(samp, sizeof samp,
                    ", sampling rejected (probe delta %.6f)", sample_delta);
      os << samp;
    }
    os << "\n";
  }
  if (!note.empty()) os << "  note: " << note << "\n";
  return os.str();
}

std::string BlockChoice::to_json() const {
  std::ostringstream os;
  os << "{\n"
     << "  \"ks_name\": \"" << ks_name << "\",\n"
     << "  \"ks\": " << ks << ",\n"
     << "  \"analytic_ks\": " << analytic_ks << ",\n"
     << "  \"probe\": " << probe << ",\n"
     << "  \"budget_bytes\": " << static_cast<long>(budget_bytes) << ",\n"
     << "  \"analytic_footprint_bytes\": " << analytic_footprint_bytes
     << ",\n"
     << "  \"candidates\": [";
  for (std::size_t i = 0; i < candidates.size(); ++i)
    os << (i ? ", " : "") << candidates[i];
  os << "],\n"
     << "  \"swept\": " << (swept ? "true" : "false") << ",\n"
     << "  \"metric\": \"" << metric_name << "\",\n"
     << "  \"chosen_metric\": " << chosen_metric << ",\n"
     << "  \"best_swept_ks\": " << best_swept_ks << ",\n"
     << "  \"best_swept_metric\": " << best_swept_metric << ",\n"
     << "  \"within_tolerance\": " << (within_tolerance() ? "true" : "false")
     << ",\n"
     << "  \"traces_synthesized\": "
     << (traces_synthesized ? "true" : "false") << ",\n"
     << "  \"sample_every\": " << sample_every << ",\n"
     << "  \"sample_validated\": " << (sample_validated ? "true" : "false")
     << ",\n"
     << "  \"sample_delta\": " << sample_delta << ",\n"
     << "  \"store_hits\": " << store_hits << ",\n"
     << "  \"store_misses\": " << store_misses << ",\n"
     << "  \"sweep\": [";
  for (std::size_t i = 0; i < table.size(); ++i) {
    const Row& r = table[i];
    os << (i ? ",\n    " : "\n    ") << "{\"ks\": " << r.ks
       << ", \"metric\": " << r.metric << ", \"miss_ratio\": " << r.miss_ratio
       << ", \"accesses\": " << r.accesses << ", \"misses\": " << r.misses
       << ", \"predicted_bytes\": " << r.predicted_bytes
       << ", \"from_model\": " << (r.from_model ? "true" : "false") << "}";
  }
  os << "\n  ],\n"
     << "  \"note\": \"" << note << "\"\n"
     << "}\n";
  return os.str();
}

}  // namespace blk::model
