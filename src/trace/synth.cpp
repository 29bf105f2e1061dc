#include "trace/synth.hpp"

#include <map>
#include <set>
#include <vector>

#include "interp/interp.hpp"
#include "ir/error.hpp"

namespace blk::trace {

using namespace blk::ir;

// ---- Eligibility ------------------------------------------------------------

namespace {

[[nodiscard]] bool has_array_elem(const IExpr& e) {
  if (e.kind == IKind::ArrayElem) return true;
  if (e.lhs && has_array_elem(*e.lhs)) return true;
  if (e.rhs && has_array_elem(*e.rhs)) return true;
  return false;
}

/// Check one index expression: no ArrayElem, all free vars in scope.
[[nodiscard]] std::optional<std::string> check_iexpr(
    const IExprPtr& e, const std::set<std::string>& scope) {
  if (has_array_elem(*e))
    return "index expression '" + to_string(e) +
           "' reads an array element (data-dependent subscript)";
  std::vector<std::string> vars;
  free_vars(*e, vars);
  for (const std::string& v : vars)
    if (!scope.contains(v))
      return "index expression '" + to_string(e) + "' depends on '" + v +
             "', which is not an enclosing loop variable or parameter";
  return std::nullopt;
}

[[nodiscard]] std::optional<std::string> check_vexpr(
    const VExpr& e, const std::set<std::string>& scope) {
  switch (e.kind) {
    case VKind::Const:
    case VKind::ScalarRef:
      return std::nullopt;
    case VKind::IndexVal:
      return check_iexpr(e.index, scope);
    case VKind::ArrayRef:
      for (const IExprPtr& s : e.subs)
        if (auto r = check_iexpr(s, scope)) return r;
      return std::nullopt;
    case VKind::Bin: {
      if (auto r = check_vexpr(*e.lhs, scope)) return r;
      return check_vexpr(*e.rhs, scope);
    }
    case VKind::Un:
      return check_vexpr(*e.lhs, scope);
  }
  return std::nullopt;
}

[[nodiscard]] std::optional<std::string> check_list(
    const StmtList& body, std::set<std::string>& scope) {
  for (const StmtPtr& s : body) {
    switch (s->kind()) {
      case SKind::If:
        return std::string(
            "IF statement (control flow depends on runtime data)");
      case SKind::Assign: {
        const Assign& a = s->as_assign();
        if (auto r = check_vexpr(*a.rhs, scope)) return r;
        for (const IExprPtr& sub : a.lhs.subs)
          if (auto r = check_iexpr(sub, scope)) return r;
        break;
      }
      case SKind::Loop: {
        const Loop& l = s->as_loop();
        if (auto r = check_iexpr(l.lb, scope)) return r;
        if (auto r = check_iexpr(l.ub, scope)) return r;
        if (auto r = check_iexpr(l.step, scope)) return r;
        const bool fresh = scope.insert(l.var).second;
        auto r = check_list(l.body, scope);
        if (fresh) scope.erase(l.var);
        if (r) return r;
        break;
      }
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> synth_ineligible_reason(const Program& p) {
  std::set<std::string> scope(p.params().begin(), p.params().end());
  return check_list(p.body, scope);
}

// ---- Synthesis --------------------------------------------------------------

namespace {

/// Is the address of a subscript affine in loop variable `v`?  Constant
/// (v-free) subtrees may be arbitrary — MIN/MAX bounds folded into a
/// subscript are fine as long as they do not mention v itself.
[[nodiscard]] bool affine_in(const IExpr& e, const std::string& v) {
  switch (e.kind) {
    case IKind::Const:
      return true;
    case IKind::Var:
      return true;
    case IKind::Add:
    case IKind::Sub:
      return affine_in(*e.lhs, v) && affine_in(*e.rhs, v);
    case IKind::Mul: {
      const bool lm = mentions(*e.lhs, v);
      const bool rm = mentions(*e.rhs, v);
      if (lm && rm) return false;
      if (lm) return affine_in(*e.lhs, v);
      if (rm) return affine_in(*e.rhs, v);
      return true;
    }
    case IKind::Min:
    case IKind::Max:
    case IKind::FloorDiv:
    case IKind::CeilDiv:
      return !mentions(e, v);
    case IKind::ArrayElem:
      return false;
  }
  return false;
}

/// One traced reference of an assignment, in VM emission order.
struct Ref {
  const interp::Tensor* tensor = nullptr;
  const std::vector<IExprPtr>* subs = nullptr;
  bool is_write = false;
};

/// Append `rhs`'s array reads in evaluation order (depth-first, left to
/// right) — exactly the order Interpreter::eval and the VM's postfix
/// bytecode touch them.
void collect_rhs_refs(const VExpr& e, const interp::Store& store,
                      std::vector<Ref>& out) {
  switch (e.kind) {
    case VKind::ArrayRef:
      out.push_back(Ref{&store.arrays.at(e.name), &e.subs, false});
      return;
    case VKind::Bin:
      collect_rhs_refs(*e.lhs, store, out);
      collect_rhs_refs(*e.rhs, store, out);
      return;
    case VKind::Un:
      collect_rhs_refs(*e.lhs, store, out);
      return;
    case VKind::Const:
    case VKind::ScalarRef:
    case VKind::IndexVal:
      return;
  }
}

class Synthesizer {
 public:
  Synthesizer(const Program& p, const ir::Env& params, TraceEncoder& enc)
      : program_(p),
        enc_(enc),
        store_(interp::make_store(p, params)),
        env_(params) {}

  SynthStats run() {
    exec_list(program_.body);
    return stats_;
  }

 private:
  const Program& program_;
  TraceEncoder& enc_;
  interp::Store store_;
  ir::Env env_;  ///< params + live loop variables
  SynthStats stats_;
  std::map<const Assign*, std::vector<Ref>> ref_cache_;
  std::map<const Loop*, int> fast_cache_;  ///< -1 unknown handled via find

  [[nodiscard]] const std::vector<Ref>& refs_of(const Assign& a) {
    auto it = ref_cache_.find(&a);
    if (it != ref_cache_.end()) return it->second;
    std::vector<Ref> refs;
    collect_rhs_refs(*a.rhs, store_, refs);
    if (a.lhs.is_array())
      refs.push_back(Ref{&store_.arrays.at(a.lhs.name), &a.lhs.subs, true});
    return ref_cache_.emplace(&a, std::move(refs)).first->second;
  }

  [[nodiscard]] std::uint64_t ref_addr(const Ref& r) {
    idx_scratch_.clear();
    for (const IExprPtr& s : *r.subs)
      idx_scratch_.push_back(evaluate(s, env_));
    return r.tensor->address(r.tensor->offset(idx_scratch_));
  }

  std::vector<long> idx_scratch_;
  std::vector<TraceEncoder::RefPattern> slot_scratch_;

  void emit_assign(const Assign& a) {
    for (const Ref& r : refs_of(a)) {
      ++stats_.records;
      enc_.append(ref_addr(r), r.is_write);
    }
  }

  /// An innermost all-Assign loop whose traced subscripts are affine in
  /// its variable collapses to one RUNA op per instance.
  [[nodiscard]] bool fast_eligible(const Loop& l) {
    auto it = fast_cache_.find(&l);
    if (it != fast_cache_.end()) return it->second != 0;
    bool ok = !l.body.empty();
    std::size_t total_refs = 0;
    for (const StmtPtr& s : l.body) {
      if (s->kind() != SKind::Assign) {
        ok = false;
        break;
      }
      for (const Ref& r : refs_of(s->as_assign())) {
        ++total_refs;
        for (const IExprPtr& sub : *r.subs)
          if (!affine_in(*sub, l.var)) ok = false;
      }
    }
    if (total_refs == 0 || total_refs > TraceEncoder::kMaxPeriod) ok = false;
    fast_cache_[&l] = ok ? 1 : 0;
    return ok;
  }

  /// Trip count of `DO v = lb, ub, step` (0 when the loop doesn't run).
  [[nodiscard]] static std::uint64_t trip_count(long lb, long ub, long step) {
    if (step > 0) return ub < lb ? 0 : static_cast<std::uint64_t>(
                                           (ub - lb) / step + 1);
    return lb < ub ? 0 : static_cast<std::uint64_t>((lb - ub) / (-step) + 1);
  }

  void exec_list(const StmtList& body) {
    for (const StmtPtr& s : body) exec(*s);
  }

  void exec(const Stmt& s) {
    if (s.kind() == SKind::Assign) {
      emit_assign(s.as_assign());
      return;
    }
    const Loop& l = s.as_loop();  // If is ineligible, never reaches here
    const long lb = evaluate(l.lb, env_);
    const long ub = evaluate(l.ub, env_);
    const long step = evaluate(l.step, env_);
    if (step == 0) throw Error("synthesize: zero loop step in " + l.var);
    const std::uint64_t trips = trip_count(lb, ub, step);
    if (trips == 0) return;

    // Save/restore an outer binding of the same variable name, matching
    // the interpreter's sequential-reuse semantics.
    long saved = 0;
    bool had = false;
    if (auto it = env_.find(l.var); it != env_.end()) {
      saved = it->second;
      had = true;
    }

    if (fast_eligible(l)) {
      fast_loop(l, lb, step, trips);
    } else {
      for (std::uint64_t t = 0; t < trips; ++t) {
        env_[l.var] = lb + static_cast<long>(t) * step;
        exec_list(l.body);
      }
    }

    if (had)
      env_[l.var] = saved;
    else
      env_.erase(l.var);
  }

  void fast_loop(const Loop& l, long lb, long step, std::uint64_t trips) {
    // Two evaluations per reference pin its affine address progression.
    slot_scratch_.clear();
    env_[l.var] = lb;
    for (const StmtPtr& s : l.body)
      for (const Ref& r : refs_of(s->as_assign()))
        slot_scratch_.push_back(
            TraceEncoder::RefPattern{ref_addr(r), 0, r.is_write});
    if (trips > 1) {
      env_[l.var] = lb + step;
      std::size_t j = 0;
      for (const StmtPtr& s : l.body)
        for (const Ref& r : refs_of(s->as_assign())) {
          TraceEncoder::RefPattern& slot = slot_scratch_[j++];
          slot.stride = static_cast<std::int64_t>(ref_addr(r) -
                                                  slot.start_addr);
        }
    }
    stats_.records += slot_scratch_.size() * trips;
    enc_.append_run_affine(slot_scratch_, trips);
  }
};

}  // namespace

SynthStats synthesize(const Program& p, const ir::Env& params,
                      TraceEncoder& enc) {
  if (auto reason = synth_ineligible_reason(p))
    throw Error("synthesize: program is not synthesizable: " + *reason);
  return Synthesizer(p, params, enc).run();
}

EncodedTrace synthesize_or_record(const Program& p, const ir::Env& params,
                                  std::uint64_t seed, bool* used_synth,
                                  SynthStats* stats) {
  if (synth_eligible(p)) {
    EncodedTrace t;
    TraceEncoder enc(t);
    SynthStats st = Synthesizer(p, params, enc).run();
    enc.finish();
    if (used_synth) *used_synth = true;
    if (stats) *stats = st;
    return t;
  }
  if (used_synth) *used_synth = false;
  EncodedTrace t = record_trace(p, params, seed);
  if (stats) {
    *stats = SynthStats{};
    stats->records = t.records;
  }
  return t;
}

}  // namespace blk::trace
