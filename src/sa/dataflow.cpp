#include "sa/dataflow.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "analysis/refs.hpp"
#include "ir/iexpr.hpp"
#include "ir/printer.hpp"

namespace blk::sa {

using namespace blk::ir;
using analysis::Assumptions;
using analysis::Section;
using analysis::Triplet;

// ---- RegionSet / RegionState -----------------------------------------------

bool RegionSet::add(const Region& r) {
  if (!r.analyzable) {
    if (top_) return false;
    top_ = true;
    return true;
  }
  if (top_) return false;  // TOP absorbs everything
  const std::string key = r.section.to_string();
  for (const auto& s : sections_)
    if (s.to_string() == key) return false;
  sections_.push_back(r.section);
  return true;
}

bool RegionSet::covers(const Section& s, const Assumptions& ctx) const {
  if (top_) return false;  // unanalyzable: nothing is *provably* covered
  for (const auto& m : sections_)
    if (analysis::subset(s, m, ctx) == true) return true;
  return false;
}

bool RegionSet::may_overlap(const Section& s, const Assumptions& ctx) const {
  if (top_) return true;
  for (const auto& m : sections_)
    if (analysis::disjoint(s, m, ctx) != true) return true;
  return false;
}

bool RegionSet::join(const RegionSet& o) {
  bool changed = false;
  if (o.top_ && !top_) {
    top_ = true;
    sections_.clear();
    return true;
  }
  if (top_) return false;
  for (const auto& s : o.sections_) {
    Region r;
    r.section = s;
    r.analyzable = true;
    changed |= add(r);
  }
  return changed;
}

bool RegionState::add_write(const Region& r) {
  return writes_[r.array].add(r);
}

const RegionSet* RegionState::writes(const std::string& array) const {
  auto it = writes_.find(array);
  return it == writes_.end() ? nullptr : &it->second;
}

bool RegionState::join(const RegionState& o) {
  bool changed = false;
  for (const auto& [array, set] : o.writes_)
    changed |= writes_[array].join(set);
  return changed;
}

// ---- Section expansion -----------------------------------------------------

Section expand_over(const Section& s, std::span<Loop* const> loops) {
  Section out;
  out.array = s.array;
  for (const auto& t : s.dims) {
    Triplet e;
    if (t.lb) e.lb = analysis::sweep_extreme(t.lb, loops, /*lower=*/true);
    if (t.ub) e.ub = analysis::sweep_extreme(t.ub, loops, /*lower=*/false);
    out.dims.push_back(std::move(e));
  }
  return out;
}

namespace {

[[nodiscard]] bool fully_bounded(const Section& s) {
  for (const auto& t : s.dims)
    if (!t.lb || !t.ub) return false;
  return !s.dims.empty();
}

[[nodiscard]] std::string describe_assign(const Assign& a) {
  std::ostringstream os;
  if (a.label != 0) os << a.label << ": ";
  os << a.lhs.name;
  if (a.lhs.is_array()) {
    os << "(";
    for (std::size_t i = 0; i < a.lhs.subs.size(); ++i) {
      if (i) os << ",";
      os << ir::to_string(a.lhs.subs[i]);
    }
    os << ")";
  }
  os << "=...";
  return os.str();
}

[[nodiscard]] std::string join_path(const std::string& prefix,
                                    const std::string& seg) {
  return prefix.empty() ? seg : prefix + " > " + seg;
}

/// Region of one reference with the given loops expanded, the rest symbolic.
[[nodiscard]] Region region_of(const analysis::RefInfo& ref,
                               std::span<Loop* const> expand,
                               bool guarded, const std::string& path) {
  Region r;
  r.array = ref.array;
  r.is_write = ref.is_write;
  r.guarded = guarded;
  r.def = ref.stmt;
  r.path = path;
  if (ref.subs.empty()) {  // scalars: rank-0 region, never analyzable
    r.analyzable = false;
    r.section.array = ref.array;
    return r;
  }
  r.section = analysis::section_of(ref, expand);
  r.analyzable = fully_bounded(r.section);
  return r;
}

/// Walks one subtree accumulating reads/writes for summarize_stmt.
struct Summarizer {
  Program& p;
  std::span<Loop* const> enclosing;  ///< loops around the subtree root
  const Assumptions& outer_ctx;
  StmtFacts facts;

  Summarizer(Program& prog, std::span<Loop* const> enc,
             const Assumptions& ctx)
      : p(prog), enclosing(enc), outer_ctx(ctx) {}

  std::vector<Loop*> internal;  ///< loops opened inside the subtree
  std::vector<std::string> path;
  int if_depth = 0;
  bool maybe_empty_loop = false;  ///< some internal loop not provably >=1 trip

  [[nodiscard]] std::string path_str(const std::string& prefix) const {
    std::string out = prefix;
    for (const auto& seg : path) out = join_path(out, seg);
    return out;
  }

  /// All loops enclosing the current point: subtree-internal only, so
  /// sections stay symbolic in the enclosing loops' variables.
  void record(analysis::RefInfo ref, const std::string& prefix) {
    // section_of needs the full chain in ref.loops with `expand` a suffix;
    // build the chain as enclosing + internal.
    ref.loops.assign(enclosing.begin(), enclosing.end());
    ref.loops.insert(ref.loops.end(), internal.begin(), internal.end());
    bool guarded = if_depth > 0 || maybe_empty_loop;
    Region r = region_of(
        ref, std::span<Loop* const>(ref.loops).subspan(enclosing.size()),
        guarded, path_str(prefix));
    (ref.is_write ? facts.writes : facts.reads).push_back(std::move(r));
  }

  void scan_iexpr(const IExpr& e, const std::string& prefix) {
    if (e.kind == IKind::ArrayElem && p.has_array(e.name) &&
        p.array_decl(e.name).rank() == 1) {
      analysis::RefInfo ref;
      ref.array = e.name;
      ref.subs = {e.lhs};
      record(std::move(ref), prefix);
    }
    if (e.lhs) scan_iexpr(*e.lhs, prefix);
    if (e.rhs) scan_iexpr(*e.rhs, prefix);
  }

  void scan_vexpr(const VExpr& e, Assign* owner, const std::string& prefix) {
    switch (e.kind) {
      case VKind::ArrayRef: {
        analysis::RefInfo ref;
        ref.stmt = owner;
        ref.array = e.name;
        ref.subs = e.subs;
        record(std::move(ref), prefix);
        for (const auto& s : e.subs)
          if (s) scan_iexpr(*s, prefix);
        return;
      }
      case VKind::IndexVal:
        if (e.index) scan_iexpr(*e.index, prefix);
        return;
      default:
        if (e.lhs) scan_vexpr(*e.lhs, owner, prefix);
        if (e.rhs) scan_vexpr(*e.rhs, owner, prefix);
        return;
    }
  }

  void visit(Stmt& s, const std::string& prefix) {
    switch (s.kind()) {
      case SKind::Assign: {
        Assign& a = s.as_assign();
        path.push_back(describe_assign(a));
        if (a.rhs) scan_vexpr(*a.rhs, &a, prefix);
        analysis::RefInfo ref;
        ref.stmt = &a;
        ref.is_write = true;
        ref.array = a.lhs.name;
        ref.subs = a.lhs.subs;
        record(std::move(ref), prefix);
        for (const auto& sub : a.lhs.subs)
          if (sub) scan_iexpr(*sub, prefix);
        path.pop_back();
        break;
      }
      case SKind::Loop: {
        Loop& l = s.as_loop();
        path.push_back("DO " + l.var);
        if (l.lb) scan_iexpr(*l.lb, prefix);
        if (l.ub) scan_iexpr(*l.ub, prefix);

        // A section swept over this loop is fully touched only when the
        // loop provably executes; otherwise accesses count as guarded.
        bool saved = maybe_empty_loop;
        bool pos_step = !l.step || (l.step->kind == IKind::Const &&
                                    l.step->value > 0);
        if (!pos_step || !l.lb || !l.ub || !outer_ctx.ge(l.ub, l.lb))
          maybe_empty_loop = true;
        internal.push_back(&l);
        for (auto& c : l.body)
          if (c) visit(*c, prefix);
        internal.pop_back();
        maybe_empty_loop = saved;
        path.pop_back();
        break;
      }
      case SKind::If: {
        If& f = s.as_if();
        path.push_back("IF (" + ir::to_string(f.cond) + ")");
        if (f.cond.lhs) scan_vexpr(*f.cond.lhs, nullptr, prefix);
        if (f.cond.rhs) scan_vexpr(*f.cond.rhs, nullptr, prefix);
        ++if_depth;
        for (auto& c : f.then_body)
          if (c) visit(*c, prefix);
        for (auto& c : f.else_body)
          if (c) visit(*c, prefix);
        --if_depth;
        path.pop_back();
        break;
      }
    }
  }
};

}  // namespace

StmtFacts summarize_stmt(Program& p, Stmt& s,
                         std::span<Loop* const> enclosing,
                         const Assumptions& ctx,
                         const std::string& outer_path) {
  Summarizer sum(p, enclosing, ctx);
  sum.visit(s, outer_path);
  sum.facts.stmt = &s;
  sum.facts.path = outer_path;
  if (s.kind() == SKind::Assign)
    sum.facts.path = join_path(outer_path, describe_assign(s.as_assign()));
  else if (s.kind() == SKind::Loop)
    sum.facts.path = join_path(outer_path, "DO " + s.as_loop().var);
  else
    sum.facts.path =
        join_path(outer_path, "IF (" + ir::to_string(s.as_if().cond) + ")");
  sum.facts.must_execute = s.kind() != SKind::If;
  if (s.kind() == SKind::Loop) {
    const Loop& l = s.as_loop();
    bool pos_step =
        !l.step || (l.step->kind == IKind::Const && l.step->value > 0);
    sum.facts.must_execute =
        pos_step && l.lb && l.ub && ctx.ge(l.ub, l.lb);
  }
  return sum.facts;
}

// ---- Forward engine --------------------------------------------------------

namespace {

struct Engine {
  Program& p;
  std::span<Checker* const> checkers;

  std::vector<Loop*> loops;
  std::vector<std::string> path;
  std::vector<Assumptions> ctxs;
  int if_depth = 0;
  RegionState state;
  bool dirty = false;  ///< state grew during the current pass

  Engine(Program& prog, std::span<Checker* const> ch,
         const EngineOptions& o)
      : p(prog), checkers(ch) {
    ctxs.push_back(o.ctx ? *o.ctx : Assumptions{});
  }

  [[nodiscard]] std::string path_str() const {
    std::string out;
    for (const auto& seg : path) out = join_path(out, seg);
    return out;
  }

  /// Fully-expanded region of one access at the current point.
  [[nodiscard]] Region full_region(analysis::RefInfo ref) {
    ref.loops = loops;
    return region_of(ref, std::span<Loop* const>(ref.loops),
                     if_depth > 0, path_str());
  }

  void fire_read(const Region& r, bool reporting) {
    if (!reporting) return;
    for (Checker* c : checkers) c->on_read(r, state, ctxs.back());
  }

  void do_write(const Region& r, bool reporting) {
    if (reporting)
      for (Checker* c : checkers) c->on_write(r, state, ctxs.back());
    dirty |= state.add_write(r);
  }

  void scan_iexpr(const IExpr& e, bool reporting) {
    if (e.kind == IKind::ArrayElem && p.has_array(e.name) &&
        p.array_decl(e.name).rank() == 1) {
      analysis::RefInfo ref;
      ref.array = e.name;
      ref.subs = {e.lhs};
      fire_read(full_region(std::move(ref)), reporting);
    }
    if (e.lhs) scan_iexpr(*e.lhs, reporting);
    if (e.rhs) scan_iexpr(*e.rhs, reporting);
  }

  void scan_vexpr(const VExpr& e, Assign* owner, bool reporting) {
    switch (e.kind) {
      case VKind::ArrayRef: {
        analysis::RefInfo ref;
        ref.stmt = owner;
        ref.array = e.name;
        ref.subs = e.subs;
        fire_read(full_region(std::move(ref)), reporting);
        for (const auto& s : e.subs)
          if (s) scan_iexpr(*s, reporting);
        return;
      }
      case VKind::IndexVal:
        if (e.index) scan_iexpr(*e.index, reporting);
        return;
      default:
        if (e.lhs) scan_vexpr(*e.lhs, owner, reporting);
        if (e.rhs) scan_vexpr(*e.rhs, owner, reporting);
        return;
    }
  }

  void walk(StmtList& body, bool reporting) {
    if (reporting && !checkers.empty()) {
      std::vector<StmtFacts> facts;
      facts.reserve(body.size());
      for (auto& s : body)
        if (s)
          facts.push_back(summarize_stmt(
              p, *s, std::span<Loop* const>(loops), ctxs.back(),
              path_str()));
      for (Checker* c : checkers)
        c->on_sequence(std::span<const StmtFacts>(facts), ctxs.back());
    }
    for (auto& s : body) {
      if (s) visit(*s, reporting);
    }
  }

  void visit(Stmt& s, bool reporting) {
    switch (s.kind()) {
      case SKind::Assign: {
        Assign& a = s.as_assign();
        path.push_back(describe_assign(a));
        if (a.rhs) scan_vexpr(*a.rhs, &a, reporting);
        if (a.lhs.is_array()) {
          analysis::RefInfo ref;
          ref.stmt = &a;
          ref.is_write = true;
          ref.array = a.lhs.name;
          ref.subs = a.lhs.subs;
          for (const auto& sub : a.lhs.subs)
            if (sub) scan_iexpr(*sub, reporting);
          do_write(full_region(std::move(ref)), reporting);
        }
        path.pop_back();
        break;
      }
      case SKind::Loop: {
        Loop& l = s.as_loop();
        path.push_back("DO " + l.var);
        if (l.lb) scan_iexpr(*l.lb, reporting);
        if (l.ub) scan_iexpr(*l.ub, reporting);

        Assumptions inner = ctxs.back();
        if (l.lb && l.ub) inner.add_loop_range(l.var, l.lb, l.ub, l.step);
        ctxs.push_back(std::move(inner));
        loops.push_back(&l);
        // Fixpoint: silent passes make writes from earlier iterations
        // visible to reads at the top of the body.  Regions are expanded
        // over all enclosing loops, so the state is iteration-independent
        // and converges in at most two passes; the cap of four is a
        // safety net.
        for (int i = 0; i < 4; ++i) {
          bool saved_dirty = dirty;
          dirty = false;
          walk(l.body, /*reporting=*/false);
          bool grew = dirty;
          dirty = saved_dirty || dirty;
          if (!grew) break;
        }
        walk(l.body, reporting);
        loops.pop_back();
        ctxs.pop_back();
        path.pop_back();
        break;
      }
      case SKind::If: {
        If& f = s.as_if();
        path.push_back("IF (" + ir::to_string(f.cond) + ")");
        if (f.cond.lhs) scan_vexpr(*f.cond.lhs, nullptr, reporting);
        if (f.cond.rhs) scan_vexpr(*f.cond.rhs, nullptr, reporting);
        // Writes in either branch *may* have happened after the IF, so both
        // branches accumulate into the same (may-write) state.
        ++if_depth;
        walk(f.then_body, reporting);
        walk(f.else_body, reporting);
        --if_depth;
        path.pop_back();
        break;
      }
    }
  }
};

}  // namespace

void run_dataflow(Program& p, std::span<Checker* const> checkers,
                  const EngineOptions& opt) {
  Engine eng(p, checkers, opt);
  eng.walk(p.body, /*reporting=*/true);
}

}  // namespace blk::sa
