#include "analysis/reuse.hpp"

#include <algorithm>

#include "ir/affine.hpp"

namespace blk::analysis {

using namespace blk::ir;

const char* to_string(ReuseKind k) {
  switch (k) {
    case ReuseKind::TemporalInvariant: return "temporal-invariant";
    case ReuseKind::SelfTemporal: return "self-temporal";
    case ReuseKind::SelfSpatial: return "self-spatial";
    case ReuseKind::None: return "none";
  }
  return "?";
}

namespace {

/// Classify `ref` against loop variable `var`.
RefReuse classify(const RefInfo& ref, const std::string& var,
                  long line_elements,
                  const std::vector<RefInfo>& peers) {
  RefReuse out{
      .ref = ref, .kind = ReuseKind::None, .distance = {}, .stride = 0};
  bool mentions_var = false;
  for (const auto& sub : ref.subs)
    if (mentions(*sub, var)) mentions_var = true;
  if (!mentions_var) {
    out.kind = ReuseKind::TemporalInvariant;
    return out;
  }

  // Self-temporal: a peer reference to the same array whose subscripts
  // differ only by a constant multiple of this loop's variable coordinate
  // (A(I) vs A(I-5)).
  for (const RefInfo& q : peers) {
    if (q.array != ref.array || q.subs.size() != ref.subs.size()) continue;
    if (&q == &ref || (q.stmt == ref.stmt && q.is_write == ref.is_write))
      continue;
    bool constant_gap = true;
    long gap = 0;
    for (std::size_t d = 0; d < ref.subs.size(); ++d) {
      auto diff = affine_difference(ref.subs[d], q.subs[d]);
      if (!diff || !diff->is_constant()) {
        constant_gap = false;
        break;
      }
      if (diff->constant != 0) gap = diff->constant;
    }
    if (constant_gap && gap != 0 && std::abs(gap) <= 64) {
      out.kind = ReuseKind::SelfTemporal;
      out.distance = gap;
      return out;
    }
  }

  // Self-spatial: var strides the fastest-varying subscript (dimension 0,
  // column-major) with a small coefficient and no other dimension moves.
  auto f0 = as_affine(*ref.subs[0]);
  if (f0) {
    long a0 = f0->coef_of(var);
    bool others_fixed = true;
    for (std::size_t d = 1; d < ref.subs.size(); ++d)
      if (mentions(*ref.subs[d], var)) others_fixed = false;
    if (a0 != 0 && std::abs(a0) < line_elements && others_fixed) {
      out.kind = ReuseKind::SelfSpatial;
      out.stride = a0;
      return out;
    }
  }
  out.kind = ReuseKind::None;
  return out;
}

void collect_loops(StmtList& body, std::vector<Loop*>& out) {
  for_each_stmt(body, [&](Stmt& s) {
    if (s.kind() == SKind::Loop) out.push_back(&s.as_loop());
  });
}

}  // namespace

std::vector<LoopReuse> analyze_reuse(StmtList& body, long line_elements) {
  std::vector<Loop*> loops;
  collect_loops(body, loops);
  std::vector<RefInfo> refs = collect_refs(body);

  std::vector<LoopReuse> out;
  out.reserve(loops.size());
  for (Loop* l : loops) {
    LoopReuse lr{.loop = l, .refs = {}};
    for (const RefInfo& r : refs) {
      if (r.is_scalar()) continue;
      // Only references governed by this loop.
      if (std::find(r.loops.begin(), r.loops.end(), l) == r.loops.end())
        continue;
      lr.refs.push_back(classify(r, l->var, line_elements, refs));
    }
    out.push_back(std::move(lr));
  }
  return out;
}

}  // namespace blk::analysis
