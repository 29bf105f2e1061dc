#include "interp/interp.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <random>

#include "ir/error.hpp"

namespace blk::interp {

using namespace blk::ir;

Tensor::Tensor(std::vector<long> lower, std::vector<long> upper,
               std::uint64_t base_addr)
    : lower_(std::move(lower)), upper_(std::move(upper)),
      base_addr_(base_addr) {
  if (lower_.size() != upper_.size())
    throw Error("Tensor: rank mismatch between bounds");
  std::size_t total = 1;
  stride_.resize(lower_.size());
  for (std::size_t d = 0; d < lower_.size(); ++d) {
    stride_[d] = total;
    total *= static_cast<std::size_t>(
        std::max(upper_[d] - lower_[d] + 1, 0L));
  }
  data_.assign(total, 0.0);
}

std::size_t Tensor::offset(std::span<const long> idx) const {
  if (idx.size() != lower_.size())
    throw Error("Tensor: subscript rank mismatch");
  std::size_t flat = 0;
  for (std::size_t d = 0; d < idx.size(); ++d) {
    if (idx[d] < lower_[d] || idx[d] > upper_[d])
      throw Error("Tensor: index " + std::to_string(idx[d]) +
                  " out of bounds [" + std::to_string(lower_[d]) + "," +
                  std::to_string(upper_[d]) + "] in dimension " +
                  std::to_string(d));
    flat += static_cast<std::size_t>(idx[d] - lower_[d]) * stride_[d];
  }
  return flat;
}

Store make_store(const ir::Program& program, const ir::Env& params) {
  Store store;
  // Allocate arrays at distinct synthetic addresses, 64-byte aligned, with a
  // guard gap so distinct arrays never share a cache line.
  std::uint64_t next_base = 1 << 20;
  for (const auto& [name, decl] : program.arrays()) {
    std::vector<long> lb, ub;
    lb.reserve(decl.dims.size());
    ub.reserve(decl.dims.size());
    for (const auto& d : decl.dims) {
      lb.push_back(evaluate(d.lb, params));
      ub.push_back(evaluate(d.ub, params));
    }
    Tensor t(std::move(lb), std::move(ub), next_base);
    next_base += (t.size() * sizeof(double) + 4095) / 4096 * 4096 + 4096;
    store.arrays.emplace(name, std::move(t));
  }
  for (const auto& s : program.scalars())
    if (!program.is_temporary(s)) store.scalars[s] = 0.0;
  return store;
}

void seed_store(Store& store, std::uint64_t seed) {
  for (auto& [name, t] : store.arrays) {
    // Per-array stream derived from the name, so semantically equivalent
    // programs with extra compiler temporaries seed shared arrays alike.
    std::uint64_t k = seed;
    for (char ch : name)
      k = k * 1099511628211ULL + static_cast<unsigned char>(ch);
    fill_random(t, k);
  }
}

Interpreter::Interpreter(const ir::Program& program, ir::Env params)
    : program_(program), params_(std::move(params)) {
  store_ = make_store(program_, params_);
}

void Interpreter::run(TraceBuffer* trace) {
  loop_env_ = params_;
  trace_ = trace;
  stmts_ = 0;
  temps_.clear();
  for (const auto& t : program_.scalars())
    if (program_.is_temporary(t)) temps_[t] = 0.0;
  exec_list(program_.body);
}

double* Interpreter::scalar(const std::string& name) {
  auto& vars = program_.is_temporary(name) ? temps_ : store_.scalars;
  auto it = vars.find(name);
  return it == vars.end() ? nullptr : &it->second;
}

void Interpreter::exec_list(const ir::StmtList& body) {
  for (const auto& s : body) exec(*s);
}

void Interpreter::exec(const ir::Stmt& s) {
  switch (s.kind()) {
    case SKind::Assign: {
      const Assign& a = s.as_assign();
      ++stmts_;
      double v = eval(*a.rhs);
      if (a.lhs.is_array()) {
        std::vector<long> idx = eval_subs(a.lhs.subs);
        store_element(a.lhs.name, idx, v);
      } else {
        (program_.is_temporary(a.lhs.name) ? temps_
                                           : store_.scalars)[a.lhs.name] = v;
      }
      return;
    }
    case SKind::Loop: {
      const Loop& l = s.as_loop();
      long lb = ieval(l.lb);
      long ub = ieval(l.ub);
      long step = ieval(l.step);
      if (step == 0) throw Error("Interpreter: zero loop step in " + l.var);
      // Loop variables may be reused sequentially (after distribution both
      // halves keep the same name); save and restore any outer binding.
      long saved = 0;
      bool had = false;
      if (auto it = loop_env_.find(l.var); it != loop_env_.end()) {
        saved = it->second;
        had = true;
      }
      if (step > 0)
        for (long i = lb; i <= ub; i += step) {
          loop_env_[l.var] = i;
          exec_list(l.body);
        }
      else
        for (long i = lb; i >= ub; i += step) {
          loop_env_[l.var] = i;
          exec_list(l.body);
        }
      if (had)
        loop_env_[l.var] = saved;
      else
        loop_env_.erase(l.var);
      return;
    }
    case SKind::If: {
      const If& f = s.as_if();
      ++stmts_;
      if (eval_cond(f.cond))
        exec_list(f.then_body);
      else
        exec_list(f.else_body);
      return;
    }
  }
}

std::vector<long> Interpreter::eval_subs(
    const std::vector<ir::IExprPtr>& subs) {
  std::vector<long> idx;
  idx.reserve(subs.size());
  for (const auto& e : subs) idx.push_back(ieval(e));
  return idx;
}

double Interpreter::load(const std::string& name, std::span<const long> idx) {
  auto it = store_.arrays.find(name);
  if (it == store_.arrays.end())
    throw Error("Interpreter: undeclared array " + name);
  Tensor& t = it->second;
  std::size_t flat = t.offset(idx);
  if (trace_) trace_->append(t.address(flat), /*is_write=*/false);
  return t.flat()[flat];
}

void Interpreter::store_element(const std::string& name,
                                std::span<const long> idx, double v) {
  auto it = store_.arrays.find(name);
  if (it == store_.arrays.end())
    throw Error("Interpreter: undeclared array " + name);
  Tensor& t = it->second;
  std::size_t flat = t.offset(idx);
  if (trace_) trace_->append(t.address(flat), /*is_write=*/true);
  t.flat()[flat] = v;
}

long Interpreter::ieval(const ir::IExpr& e) {
  switch (e.kind) {
    case IKind::Const:
      return e.value;
    case IKind::Var: {
      if (auto it = loop_env_.find(e.name); it != loop_env_.end())
        return it->second;
      // Integer-valued runtime scalar (IF-inspection counter, pivot row).
      if (const double* x = scalar(e.name)) return static_cast<long>(*x);
      throw Error("Interpreter: unbound index variable " + e.name);
    }
    case IKind::Add:
      return ieval(*e.lhs) + ieval(*e.rhs);
    case IKind::Sub:
      return ieval(*e.lhs) - ieval(*e.rhs);
    case IKind::Mul:
      return ieval(*e.lhs) * ieval(*e.rhs);
    case IKind::Min:
      return std::min(ieval(*e.lhs), ieval(*e.rhs));
    case IKind::Max:
      return std::max(ieval(*e.lhs), ieval(*e.rhs));
    case IKind::FloorDiv:
    case IKind::CeilDiv: {
      long a = ieval(*e.lhs);
      long d = ieval(*e.rhs);
      if (d <= 0) throw Error("Interpreter: division by non-positive value");
      long q = a / d;
      long r = a % d;
      if (e.kind == IKind::FloorDiv) return (r != 0 && a < 0) ? q - 1 : q;
      return (r != 0 && a > 0) ? q + 1 : q;
    }
    case IKind::ArrayElem: {
      long ix = ieval(*e.lhs);
      std::array<long, 1> idx{ix};
      return static_cast<long>(load(e.name, idx));
    }
  }
  throw Error("Interpreter: corrupt IExpr");
}

double Interpreter::eval(const ir::VExpr& e) {
  switch (e.kind) {
    case VKind::Const:
      return e.cval;
    case VKind::ScalarRef: {
      const double* x = scalar(e.name);
      if (!x) throw Error("Interpreter: undeclared scalar " + e.name);
      return *x;
    }
    case VKind::IndexVal:
      return static_cast<double>(ieval(e.index));
    case VKind::ArrayRef: {
      std::vector<long> idx = eval_subs(e.subs);
      return load(e.name, idx);
    }
    case VKind::Bin: {
      double l = eval(*e.lhs);
      double r = eval(*e.rhs);
      switch (e.bop) {
        case BinOp::Add: return l + r;
        case BinOp::Sub: return l - r;
        case BinOp::Mul: return l * r;
        case BinOp::Div: return l / r;
      }
      break;
    }
    case VKind::Un: {
      double l = eval(*e.lhs);
      switch (e.uop) {
        case UnOp::Neg: return -l;
        case UnOp::Sqrt: return std::sqrt(l);
        case UnOp::Abs: return std::fabs(l);
      }
      break;
    }
  }
  throw Error("Interpreter: corrupt VExpr");
}

bool Interpreter::eval_cond(const ir::Cond& c) {
  double l = eval(*c.lhs);
  double r = eval(*c.rhs);
  switch (c.op) {
    case CmpOp::EQ: return l == r;
    case CmpOp::NE: return l != r;
    case CmpOp::LT: return l < r;
    case CmpOp::LE: return l <= r;
    case CmpOp::GT: return l > r;
    case CmpOp::GE: return l >= r;
  }
  throw Error("Interpreter: corrupt Cond");
}

void fill_random(Tensor& t, std::uint64_t seed, double lo, double hi) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(lo, hi);
  for (double& x : t.flat()) x = dist(rng);
}

double max_abs_diff(const Store& a, const Store& b) {
  double m = 0.0;
  for (const auto& [name, ta] : a.arrays) {
    auto it = b.arrays.find(name);
    if (it == b.arrays.end())
      throw Error("max_abs_diff: array " + name + " missing in rhs store");
    const Tensor& tb = it->second;
    if (ta.size() != tb.size())
      throw Error("max_abs_diff: size mismatch for " + name);
    auto fa = ta.flat();
    auto fb = tb.flat();
    for (std::size_t i = 0; i < fa.size(); ++i)
      m = std::max(m, std::fabs(fa[i] - fb[i]));
  }
  return m;
}

}  // namespace blk::interp
