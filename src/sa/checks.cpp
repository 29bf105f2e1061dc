#include "sa/checks.hpp"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "analysis/refs.hpp"
#include "analysis/sections.hpp"
#include "ir/affine.hpp"

namespace blk::sa {

using namespace blk::ir;
using analysis::Assumptions;
using analysis::RefInfo;
using analysis::Section;

namespace {

/// Section `r` touches while the loops it is inside from `depth` inward
/// run; nullopt when a bound defeats the analysis.
[[nodiscard]] std::optional<Section> section_from(const RefInfo& r,
                                                  std::size_t depth) {
  Section s = analysis::section_of(
      r, std::span<Loop* const>(r.loops).subspan(depth));
  for (const auto& t : s.dims)
    if (!t.lb || !t.ub) return std::nullopt;
  return s;
}

/// The loop provably runs at least once, counting up, under `ctx`.
[[nodiscard]] bool runs(const Loop& l, const Assumptions& ctx) {
  return l.step->kind == IKind::Const && l.step->value > 0 &&
         ctx.ge(l.ub, l.lb);
}

/// The write `w` touches every element of its section over the loops from
/// `depth` inward (a section is a hull: DO K / M(K,K) spans M(1:N,1:N)).
/// Each such loop counts up by 1 and drives at most one subscript, with
/// coefficient +-1; no subscript holds two of them, and no such loop's
/// bounds mention another (no triangle).
[[nodiscard]] bool exact(const RefInfo& w, std::size_t depth) {
  std::span<Loop* const> loops =
      std::span<Loop* const>(w.loops).subspan(depth);
  std::set<std::string> driven;
  for (const auto& sub : w.subs) {
    auto aff = as_affine(sub);
    int here = 0;
    for (const Loop* l : loops)
      if (mentions(*sub, l->var) &&
          (++here > 1 || !aff || std::labs(aff->coef_of(l->var)) != 1 ||
           !driven.insert(l->var).second))
        return false;
  }
  return std::ranges::all_of(loops, [&](const Loop* l) {
    return l->step->kind == IKind::Const && l->step->value == 1 &&
           std::ranges::none_of(loops, [&](const Loop* m) {
             return mentions(*l->lb, m->var) || mentions(*l->ub, m->var);
           });
  });
}

/// One reference of a statement-list child, over the loops inside it.
struct Access {
  const RefInfo* ref = nullptr;
  std::optional<Section> sec;
  bool guarded = false;  ///< under an IF or a maybe-empty loop of the child
  bool exact = false;    ///< a write of every element of `sec`
};

/// Dead stores, one statement list at a time.  A child's reads and writes
/// are the references it owns, expanded over the loops inside it.  A store
/// becomes "pending" when its child writes it unconditionally and its own
/// reads provably miss it; a later sibling kills it (dead store) by an
/// unconditional exact write of a covering section, or consumes it (live)
/// by any read that is not provably disjoint.  Pending stores surviving to
/// the end of the list are dropped: something after it may still read
/// them.
struct DeadStores {
  const verify::StmtTable& at;
  verify::Report& rep;

  /// Checks the list whose children start at position `pos`, inside
  /// `depth` loops whose ranges `ctx` holds, then every list nested in
  /// it.  Returns the position after the list.
  int check(StmtList& body, int pos, std::size_t depth,
            const Assumptions& ctx) {
    const int first = pos;
    std::vector<Access> pending;
    for (auto& s : body) {
      std::vector<Access> reads, writes;
      for (const RefInfo& r : at.subtree(pos)) {
        if (r.is_scalar()) continue;  // scalars are not regions
        Access a{.ref = &r, .sec = section_from(r, depth)};
        if (r.is_write) {
          a.guarded = at[r.textual_pos].guard >= pos;
          for (std::size_t k = depth; k < r.loops.size(); ++k)
            a.guarded = a.guarded || !runs(*r.loops[k], ctx);
          a.exact = a.sec && exact(r, depth);
        }
        (r.is_write ? writes : reads).push_back(std::move(a));
      }
      const bool must_execute =
          s->kind() == SKind::Assign ||
          (s->kind() == SKind::Loop && runs(s->as_loop(), ctx));
      // Any read that may touch `w` (Fortran reads the RHS before it
      // stores, so a child's reads come before its writes).
      auto read_of = [&](const Access& w) {
        return std::ranges::any_of(reads, [&](const Access& rd) {
          return rd.ref->array == w.ref->array &&
                 (!rd.sec || analysis::disjoint(*rd.sec, *w.sec, ctx) != true);
        });
      };
      std::erase_if(pending, read_of);
      if (must_execute)
        std::erase_if(pending, [&](const Access& store) {
          for (const Access& w : writes)
            if (!w.guarded && w.exact && w.ref->array == store.ref->array &&
                analysis::subset(*store.sec, *w.sec, ctx) == true) {
              rep.add(verify::Severity::Warning, "dead-store",
                      "store to " + store.sec->to_string() +
                          " is overwritten by " + where(w) +
                          " before any read",
                      where(store));
              return true;
            }
          return false;
        });
      if (must_execute)
        for (const Access& w : writes)
          if (w.sec && !w.guarded && !read_of(w)) pending.push_back(w);
      pos = at[pos].last + 1;
    }
    pos = first;
    for (auto& s : body) {
      if (s->kind() == SKind::Loop) {
        Loop& l = s->as_loop();
        Assumptions inner = ctx;
        inner.add_loop_range(l.var, l.lb, l.ub, l.step);
        check(l.body, pos + 1, depth + 1, inner);
      } else if (s->kind() == SKind::If) {
        If& f = s->as_if();
        check(f.else_body, check(f.then_body, pos + 1, depth, ctx), depth,
              ctx);
      }
      pos = at[pos].last + 1;
    }
    return pos;
  }

  [[nodiscard]] const std::string& where(const Access& a) const {
    return at[a.ref->textual_pos].where;
  }
};

}  // namespace

verify::Report check_dead_stores(Program& p, const CheckOptions& opt) {
  verify::Report rep;
  const verify::StmtTable at(p);
  DeadStores{at, rep}.check(p.body, 1, 0,
                            opt.ctx ? *opt.ctx : Assumptions{});
  rep.canonicalize();
  return rep;
}

/// Uninitialized region reads.  A write may precede a read when it comes
/// first in pre-order or shares an enclosing loop with it (an earlier
/// iteration).  Warn only when every part of the proof succeeds: the
/// read's section over all its loops is provably disjoint from the section
/// of every write that may precede it, the array *is* written somewhere in
/// the program (else it is an external input), and no write to it defeats
/// section analysis.
verify::Report check_uninit_reads(Program& p, const CheckOptions& opt) {
  verify::Report rep;
  const verify::StmtTable at(p);
  const std::vector<RefInfo>& refs = at.refs();
  std::set<std::string> written, unanalyzable;
  std::vector<std::optional<Section>> full;
  for (const RefInfo& r : refs) {
    full.push_back(section_from(r, 0));
    if (!r.is_write || r.is_scalar()) continue;
    written.insert(r.array);
    if (std::ranges::any_of(r.subs, [](const IExprPtr& e) { return !e; }))
      unanalyzable.insert(r.array);
  }
  const Assumptions base = opt.ctx ? *opt.ctx : Assumptions{};
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const RefInfo& rd = refs[i];
    if (rd.is_write || rd.is_scalar() || !full[i] ||
        !written.contains(rd.array) || unanalyzable.contains(rd.array))
      continue;
    const Assumptions ctx = at.context(rd.textual_pos, base);
    bool may_init = false;
    for (std::size_t j = 0; j < refs.size() && !may_init; ++j) {
      const RefInfo& w = refs[j];
      if (!w.is_write || w.is_scalar() || w.array != rd.array ||
          (w.textual_pos >= rd.textual_pos && rd.common_depth(w) == 0))
        continue;
      may_init =
          !full[j] || analysis::disjoint(*full[i], *full[j], ctx) != true;
    }
    if (!may_init)
      rep.add(verify::Severity::Warning, "uninit-region-read",
              "read of " + full[i]->to_string() + " precedes every write of " +
                  rd.array + "; the region is provably never initialized here",
              at[rd.textual_pos].where);
  }
  rep.canonicalize();
  return rep;
}

}  // namespace blk::sa
