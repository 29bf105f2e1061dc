#include "interp/vm.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "ir/error.hpp"
#include "native/engine.hpp"

namespace blk::interp {

namespace {

[[noreturn]] void oob(const AccessSite& site, std::size_t dim, long idx,
                      const AccessSite::Dim& d) {
  throw Error("VM: index " + std::to_string(idx) + " out of bounds [" +
              std::to_string(d.lb) + "," + std::to_string(d.ub) +
              "] in dimension " + std::to_string(dim) + " of " + site.name);
}

[[nodiscard]] inline long eval_form(const AffineForm& f, const long* ir) {
  long v = f.c0;
  for (const auto& [reg, coef] : f.terms) v += coef * ir[reg];
  return v;
}

}  // namespace

Vm::Vm(const ir::Program& program, ir::Env params)
    : params_(std::move(params)),
      store_(make_store(program, params_)),
      prog_(compile(program, params_, store_)) {
  ireg_.resize(static_cast<std::size_t>(prog_.n_ireg), 0);
  freg_.resize(static_cast<std::size_t>(prog_.n_freg), 0.0);
  scal_.resize(prog_.scal_names.size(), 0.0);
  for (std::size_t i = 0; i < prog_.scal_names.size(); ++i)
    if (!program.is_temporary(prog_.scal_names[i])) synced_.push_back(i);
  arr_data_.reserve(prog_.array_names.size());
  arr_base_.reserve(prog_.array_names.size());
  for (const auto& name : prog_.array_names) {
    Tensor& t = store_.arrays.at(name);
    arr_data_.push_back(t.flat().data());
    arr_base_.push_back(t.base_addr());
  }
}

void Vm::sync_scalars_in() {
  std::fill(scal_.begin(), scal_.end(), 0.0);  // temporaries start at 0
  for (std::size_t i : synced_) {
    auto it = store_.scalars.find(prog_.scal_names[i]);
    if (it != store_.scalars.end()) scal_[i] = it->second;
  }
}

void Vm::sync_scalars_out() {
  for (std::size_t i : synced_) store_.scalars[prog_.scal_names[i]] = scal_[i];
}

void Vm::run(TraceBuffer* trace) {
  if (trace)
    run_impl<true>(trace);
  else
    run_impl<false>(nullptr);
}

template <bool kTrace>
void Vm::run_impl(TraceBuffer* trace) {
  stmts_ = 0;
  sync_scalars_in();
  std::fill(ireg_.begin(), ireg_.end(), 0L);
  std::fill(freg_.begin(), freg_.end(), 0.0);

  const Insn* code = prog_.code.data();
  const AccessSite* sites = prog_.sites.data();
  const StepGroup* groups = prog_.step_groups.data();
  long* ir = ireg_.data();
  double* fr = freg_.data();
  double* sc = scal_.data();

  std::size_t pc = 0;
  for (;;) {
    const Insn& in = code[pc];
    switch (in.op) {
      case Op::IConst:
        ir[in.a] = in.imm;
        break;
      case Op::IMove:
        ir[in.a] = ir[in.b];
        break;
      case Op::IAdd:
        ir[in.a] = ir[in.b] + ir[in.c];
        break;
      case Op::ISub:
        ir[in.a] = ir[in.b] - ir[in.c];
        break;
      case Op::IMul:
        ir[in.a] = ir[in.b] * ir[in.c];
        break;
      case Op::IMin:
        ir[in.a] = std::min(ir[in.b], ir[in.c]);
        break;
      case Op::IMax:
        ir[in.a] = std::max(ir[in.b], ir[in.c]);
        break;
      case Op::IAddImm:
        ir[in.a] = ir[in.b] + in.imm;
        break;
      case Op::IDiv: {
        const long a = ir[in.b];
        const long d = ir[in.c];
        if (d <= 0) throw Error("VM: division by non-positive value");
        const long q = a / d;
        const long r = a % d;
        ir[in.a] = in.aux == 0 ? ((r != 0 && a < 0) ? q - 1 : q)
                               : ((r != 0 && a > 0) ? q + 1 : q);
        break;
      }
      case Op::ILoadScalar:
        ir[in.a] = static_cast<long>(sc[in.b]);
        break;
      case Op::ILoadElem: {
        const AccessSite& s = sites[in.b];
        const AccessSite::Dim& d = s.dims[0];
        const long v = ir[d.idx_reg];
        if (v < d.lb || v > d.ub) oob(s, 0, v, d);
        const auto flat = static_cast<std::size_t>(v - d.lb);
        if constexpr (kTrace)
          trace->append(arr_base_[static_cast<std::size_t>(s.array)] +
                            flat * sizeof(double),
                        /*is_write=*/false);
        ir[in.a] = static_cast<long>(
            arr_data_[static_cast<std::size_t>(s.array)][flat]);
        break;
      }
      case Op::AffineInit: {
        const AccessSite& s = sites[in.a];
        for (const auto& d : s.dims) ir[d.idx_reg] = eval_form(d.form, ir);
        ir[s.flat_reg] = eval_form(s.flat_form, ir);
        if (in.aux != 0) {
          // Validate the whole iteration range now: each dimension's index
          // is linear in the loop variable, so checking both endpoints
          // covers every iteration and the in-loop accesses go unchecked.
          const long lo = ir[in.b];
          const long hi = ir[in.c];
          const long st = in.imm;
          long trips = 0;
          if ((st > 0 && lo <= hi) || (st < 0 && lo >= hi))
            trips = (hi - lo) / st + 1;
          if (trips > 0) {
            for (std::size_t di = 0; di < s.dims.size(); ++di) {
              const AccessSite::Dim& d = s.dims[di];
              const long first = ir[d.idx_reg];
              const long last = first + d.delta * (trips - 1);
              const long mn = std::min(first, last);
              const long mx = std::max(first, last);
              if (mn < d.lb || mx > d.ub)
                oob(s, di, mn < d.lb ? mn : mx, d);
            }
          }
        }
        break;
      }
      case Op::AffineStep: {
        for (const auto& [reg, delta] :
             groups[in.a].updates)
          ir[reg] += delta;
        break;
      }
      case Op::DynOffset: {
        const AccessSite& s = sites[in.a];
        long flat = 0;
        for (std::size_t di = 0; di < s.dims.size(); ++di) {
          const AccessSite::Dim& d = s.dims[di];
          const long v = ir[d.idx_reg];
          if (v < d.lb || v > d.ub) oob(s, di, v, d);
          flat += (v - d.lb) * d.stride;
        }
        ir[s.flat_reg] = flat;
        break;
      }
      case Op::FConst:
        fr[in.a] = in.fimm;
        break;
      case Op::FLoadScalar:
        fr[in.a] = sc[in.b];
        break;
      case Op::FStoreScalar:
        stmts_ += in.aux;  // assignment count folded into the store
        sc[in.a] = fr[in.b];
        break;
      case Op::FLoadArr: {
        const AccessSite& s = sites[in.b];
        if (in.aux & 1) {
          for (std::size_t di = 0; di < s.dims.size(); ++di) {
            const AccessSite::Dim& d = s.dims[di];
            const long v = ir[d.idx_reg];
            if (v < d.lb || v > d.ub) oob(s, di, v, d);
          }
        }
        const auto flat = static_cast<std::size_t>(ir[s.flat_reg]);
        if constexpr (kTrace)
          trace->append(arr_base_[static_cast<std::size_t>(s.array)] +
                            flat * sizeof(double),
                        /*is_write=*/false);
        fr[in.a] = arr_data_[static_cast<std::size_t>(s.array)][flat];
        break;
      }
      case Op::FStoreArr: {
        stmts_ += in.aux >> 1;  // assignment count folded into the store
        const AccessSite& s = sites[in.b];
        if (in.aux & 1) {
          for (std::size_t di = 0; di < s.dims.size(); ++di) {
            const AccessSite::Dim& d = s.dims[di];
            const long v = ir[d.idx_reg];
            if (v < d.lb || v > d.ub) oob(s, di, v, d);
          }
        }
        const auto flat = static_cast<std::size_t>(ir[s.flat_reg]);
        if constexpr (kTrace)
          trace->append(arr_base_[static_cast<std::size_t>(s.array)] +
                            flat * sizeof(double),
                        /*is_write=*/true);
        arr_data_[static_cast<std::size_t>(s.array)][flat] = fr[in.a];
        break;
      }
      case Op::FBin: {
        const double l = fr[in.b];
        const double r = fr[in.c];
        switch (static_cast<ir::BinOp>(in.aux)) {
          case ir::BinOp::Add: fr[in.a] = l + r; break;
          case ir::BinOp::Sub: fr[in.a] = l - r; break;
          case ir::BinOp::Mul: fr[in.a] = l * r; break;
          case ir::BinOp::Div: fr[in.a] = l / r; break;
        }
        break;
      }
      case Op::FUn: {
        const double l = fr[in.b];
        switch (static_cast<ir::UnOp>(in.aux)) {
          case ir::UnOp::Neg: fr[in.a] = -l; break;
          case ir::UnOp::Sqrt: fr[in.a] = std::sqrt(l); break;
          case ir::UnOp::Abs: fr[in.a] = std::fabs(l); break;
        }
        break;
      }
      case Op::FFromInt:
        fr[in.a] = static_cast<double>(ir[in.b]);
        break;
      case Op::Jump:
        pc = static_cast<std::size_t>(in.a);
        continue;
      case Op::LoopGuard: {
        bool done;
        if (in.aux == 1) {
          done = ir[in.b] > ir[in.c];
        } else if (in.aux == 2) {
          done = ir[in.b] < ir[in.c];
        } else {
          const long st = ir[in.imm];
          if (st == 0) throw Error("VM: zero loop step");
          done = st > 0 ? ir[in.b] > ir[in.c] : ir[in.b] < ir[in.c];
        }
        if (done) {
          pc = static_cast<std::size_t>(in.a);
          continue;
        }
        break;
      }
      case Op::LoopEnd: {
        bool done;
        if (in.aux == 1) {
          done = ir[in.b] > ir[in.c];
        } else if (in.aux == 2) {
          done = ir[in.b] < ir[in.c];
        } else {
          const long st = ir[in.imm];
          done = st > 0 ? ir[in.b] > ir[in.c] : ir[in.b] < ir[in.c];
        }
        if (!done) {
          pc = static_cast<std::size_t>(in.a);
          continue;
        }
        break;
      }
      case Op::CondJump: {
        const double l = fr[in.b];
        const double r = fr[in.c];
        bool taken = false;
        switch (static_cast<ir::CmpOp>(in.aux)) {
          case ir::CmpOp::EQ: taken = l == r; break;
          case ir::CmpOp::NE: taken = l != r; break;
          case ir::CmpOp::LT: taken = l < r; break;
          case ir::CmpOp::LE: taken = l <= r; break;
          case ir::CmpOp::GT: taken = l > r; break;
          case ir::CmpOp::GE: taken = l >= r; break;
        }
        if (!taken) {
          pc = static_cast<std::size_t>(in.a);
          continue;
        }
        break;
      }
      case Op::CountStmt:
        ++stmts_;
        break;
      case Op::Fail:
        throw Error(prog_.msgs[static_cast<std::size_t>(in.a)]);
      case Op::Halt:
        sync_scalars_out();
        return;
    }
    ++pc;
  }
}

// ---- ExecEngine -------------------------------------------------------------

Engine parse_engine(std::string_view name) {
  if (name == "tree" || name == "treewalker") return Engine::TreeWalker;
  if (name == "vm") return Engine::Vm;
  if (name == "native") return Engine::Native;
  throw Error("unknown engine '" + std::string(name) +
              "' (expected tree, vm or native)");
}

const char* to_string(Engine e) {
  switch (e) {
    case Engine::TreeWalker: return "tree";
    case Engine::Vm: return "vm";
    case Engine::Native: return "native";
  }
  return "?";
}

/// native::Kernel bound to a Store: marshals parameter values, array base
/// pointers and the scalar block per the entry wrapper's declaration-order
/// contract, and syncs scalars back after each run (VM semantics).
class NativeRunner {
 public:
  NativeRunner(const ir::Program& program, ir::Env params,
               const ir::ParallelOptions* parallel)
      : params_(std::move(params)),
        store_(make_store(program, params_)),
        kernel_(program, "blk_kernel", nullptr, parallel) {
    param_vals_.reserve(kernel_.param_names().size());
    for (const auto& name : kernel_.param_names()) {
      auto it = params_.find(name);
      if (it == params_.end())
        throw Error("native: unbound parameter " + name);
      param_vals_.push_back(it->second);
    }
    array_ptrs_.resize(kernel_.array_names().size(), nullptr);
    scalar_vals_.resize(kernel_.scalar_names().size(), 0.0);
  }

  [[nodiscard]] Store& store() { return store_; }
  [[nodiscard]] const Store& store() const { return store_; }
  [[nodiscard]] const ir::Env& params() const { return params_; }

  void run() {
    for (std::size_t i = 0; i < kernel_.array_names().size(); ++i)
      array_ptrs_[i] =
          store_.arrays.at(kernel_.array_names()[i]).flat().data();
    for (std::size_t i = 0; i < kernel_.scalar_names().size(); ++i) {
      auto it = store_.scalars.find(kernel_.scalar_names()[i]);
      scalar_vals_[i] = it == store_.scalars.end() ? 0.0 : it->second;
    }
    kernel_.call(param_vals_.data(), array_ptrs_.data(),
                 scalar_vals_.data());
    for (std::size_t i = 0; i < kernel_.scalar_names().size(); ++i)
      store_.scalars[kernel_.scalar_names()[i]] = scalar_vals_[i];
  }

 private:
  ir::Env params_;
  Store store_;
  native::Kernel kernel_;
  std::vector<long> param_vals_;
  std::vector<double*> array_ptrs_;
  std::vector<double> scalar_vals_;
};

ExecEngine::ExecEngine(const ir::Program& program, ir::Env params,
                       Engine engine, const ir::ParallelOptions* parallel) {
  engine_ = engine;
  if (engine_ == Engine::Native && !native::available())
    engine_ = Engine::Vm;  // fallback policy: no toolchain -> VM
  switch (engine_) {
    case Engine::TreeWalker:
      tw_ = std::make_unique<Interpreter>(program, std::move(params));
      break;
    case Engine::Vm:
      vm_ = std::make_unique<Vm>(program, std::move(params));
      break;
    case Engine::Native:
      nat_ = std::make_unique<NativeRunner>(program, std::move(params),
                                            parallel);
      break;
  }
}

ExecEngine::~ExecEngine() = default;
ExecEngine::ExecEngine(ExecEngine&&) noexcept = default;
ExecEngine& ExecEngine::operator=(ExecEngine&&) noexcept = default;

Store& ExecEngine::store() {
  if (tw_) return tw_->store();
  if (vm_) return vm_->store();
  return nat_->store();
}
const Store& ExecEngine::store() const {
  if (tw_) return tw_->store();
  if (vm_) return vm_->store();
  return nat_->store();
}
const ir::Env& ExecEngine::params() const {
  if (tw_) return tw_->params();
  if (vm_) return vm_->params();
  return nat_->params();
}

void ExecEngine::run() {
  if (tw_)
    tw_->run();
  else if (vm_)
    vm_->run();
  else
    nat_->run();
}

void ExecEngine::run(TraceBuffer& tb) {
  if (nat_)
    throw Error("the native engine does not produce access traces; use "
                "Engine::Vm");
  if (tw_)
    tw_->run(&tb);
  else
    vm_->run(&tb);
}

std::uint64_t ExecEngine::statements_executed() const {
  if (tw_) return tw_->statements_executed();
  if (vm_) return vm_->statements_executed();
  return 0;  // the native engine does not count statements
}

Store run_seeded(const ir::Program& p, const ir::Env& params,
                 std::uint64_t seed, Engine engine) {
  ExecEngine eng(p, params, engine);
  seed_store(eng.store(), seed);
  eng.run();
  return std::move(eng.store());
}

}  // namespace blk::interp
