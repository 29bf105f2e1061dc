#include "ir/codegen.hpp"

#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "ir/error.hpp"

namespace blk::ir {

namespace {

// Scalar variables live as C doubles; using one as an index needs a cast.
const Program* g_prog = nullptr;

/// Parallel-emission state for one emit_c call.  Loops are matched against
/// the plan positionally (variable + pre-order occurrence), so the counter
/// map must tick for every loop the walk passes, outlined or not.
struct ParEmit {
  const ParallelOptions* plan = nullptr;
  std::map<std::string, int> occ;        ///< loops seen so far, per var
  std::vector<std::string> enclosing;    ///< loop vars live at this point
  std::ostringstream aux;                ///< outlined envs + worker bodies
  int next_id = 0;
  bool outlining = false;  ///< inside a worker body: no nested regions
};
ParEmit* g_par = nullptr;

void emit_iexpr(const IExpr& e, std::ostream& os);

void emit_binary(const IExpr& e, std::ostream& os, const char* op) {
  os << '(';
  emit_iexpr(*e.lhs, os);
  os << op;
  emit_iexpr(*e.rhs, os);
  os << ')';
}

void emit_iexpr(const IExpr& e, std::ostream& os) {
  switch (e.kind) {
    case IKind::Const:
      os << e.value << 'L';
      return;
    case IKind::Var:
      if (g_prog && g_prog->has_scalar(e.name))
        os << "(long)" << e.name;
      else
        os << e.name;
      return;
    case IKind::Add:
      emit_binary(e, os, " + ");
      return;
    case IKind::Sub:
      emit_binary(e, os, " - ");
      return;
    case IKind::Mul:
      emit_binary(e, os, " * ");
      return;
    case IKind::Min:
      os << "BLK_MIN(";
      emit_iexpr(*e.lhs, os);
      os << ", ";
      emit_iexpr(*e.rhs, os);
      os << ')';
      return;
    case IKind::Max:
      os << "BLK_MAX(";
      emit_iexpr(*e.lhs, os);
      os << ", ";
      emit_iexpr(*e.rhs, os);
      os << ')';
      return;
    case IKind::FloorDiv:
      os << "BLK_FDIV(";
      emit_iexpr(*e.lhs, os);
      os << ", ";
      emit_iexpr(*e.rhs, os);
      os << ')';
      return;
    case IKind::CeilDiv:
      os << "BLK_CDIV(";
      emit_iexpr(*e.lhs, os);
      os << ", ";
      emit_iexpr(*e.rhs, os);
      os << ')';
      return;
    case IKind::ArrayElem:
      os << "(long)" << e.name << '(';
      emit_iexpr(*e.lhs, os);
      os << ')';
      return;
  }
  throw Error("emit_c: corrupt IExpr");
}

void emit_vexpr(const VExpr& e, std::ostream& os) {
  switch (e.kind) {
    case VKind::Const: {
      std::ostringstream tmp;
      tmp.precision(17);
      tmp << e.cval;
      std::string s = tmp.str();
      os << s;
      if (s.find('.') == std::string::npos &&
          s.find('e') == std::string::npos)
        os << ".0";
      return;
    }
    case VKind::ScalarRef:
      os << e.name;
      return;
    case VKind::IndexVal:
      os << "(double)(";
      emit_iexpr(*e.index, os);
      os << ')';
      return;
    case VKind::ArrayRef: {
      os << e.name << '(';
      for (std::size_t i = 0; i < e.subs.size(); ++i) {
        if (i) os << ", ";
        emit_iexpr(*e.subs[i], os);
      }
      os << ')';
      return;
    }
    case VKind::Bin: {
      os << '(';
      emit_vexpr(*e.lhs, os);
      switch (e.bop) {
        case BinOp::Add: os << " + "; break;
        case BinOp::Sub: os << " - "; break;
        case BinOp::Mul: os << " * "; break;
        case BinOp::Div: os << " / "; break;
      }
      emit_vexpr(*e.rhs, os);
      os << ')';
      return;
    }
    case VKind::Un:
      switch (e.uop) {
        case UnOp::Neg:
          os << "(-";
          emit_vexpr(*e.lhs, os);
          os << ')';
          return;
        case UnOp::Sqrt:
          os << "sqrt(";
          emit_vexpr(*e.lhs, os);
          os << ')';
          return;
        case UnOp::Abs:
          os << "fabs(";
          emit_vexpr(*e.lhs, os);
          os << ')';
          return;
      }
  }
  throw Error("emit_c: corrupt VExpr");
}

void pad(std::ostream& os, int depth) {
  for (int i = 0; i < depth; ++i) os << "  ";
}

void emit_stmts(const StmtList& body, std::ostream& os, int depth);

/// Scalar names assigned anywhere in `body`.
void collect_written_scalars(const StmtList& body,
                             std::set<std::string>& out) {
  for (const auto& s : body) {
    switch (s->kind()) {
      case SKind::Assign:
        if (!s->as_assign().lhs.is_array())
          out.insert(s->as_assign().lhs.name);
        break;
      case SKind::Loop:
        collect_written_scalars(s->as_loop().body, out);
        break;
      case SKind::If:
        collect_written_scalars(s->as_if().then_body, out);
        collect_written_scalars(s->as_if().else_body, out);
        break;
    }
  }
}

/// Emit one planned loop as an outlined worker plus an in-place dispatch
/// block.  The worker computes its contiguous chunk of [lb..ub] from
/// (tid, nt) alone, so the partition — and therefore every result bit —
/// depends only on the thread count, never on scheduling.  Reduction
/// accumulators become per-thread partials combined in tid order after
/// the join; other written scalars are privatized, with the thread owning
/// the last non-empty chunk writing the (serially last) value back.
void emit_parallel_loop(const Loop& l, const ParallelLoop& pl,
                        std::ostream& os, int depth) {
  ParEmit& pe = *g_par;
  const int id = pe.next_id++;
  const std::string env_ty = "struct blk_par_env_" + std::to_string(id);
  const std::string fn = "blk_par_body_" + std::to_string(id);

  std::set<std::string> written;
  collect_written_scalars(l.body, written);
  std::set<std::string> accs(pl.accumulators.begin(),
                             pl.accumulators.end());
  if (pl.reduction)
    for (const auto& a : accs) written.erase(a);
  const char* identity =
      pl.combine == ParallelLoop::Combine::Product ? "1.0" : "0.0";
  const char* comb_op =
      pl.combine == ParallelLoop::Combine::Product ? " * " : " + ";

  // --- the env struct and worker, hoisted above the kernel function ---
  std::ostringstream& aux = pe.aux;
  aux << env_ty << " {\n  long blk_lb, blk_ub, blk_st;\n";
  for (const auto& prm : g_prog->params()) aux << "  long " << prm << ";\n";
  for (const auto& v : pe.enclosing) aux << "  long " << v << ";\n";
  for (const auto& [name, decl] : g_prog->arrays())
    aux << "  double* " << name << "_buf;\n";
  for (const auto& sc : g_prog->scalars()) aux << "  double " << sc << ";\n";
  for (const auto& sc : written) aux << "  double blk_out_" << sc << ";\n";
  if (pl.reduction)
    for (const auto& a : accs) aux << "  double* blk_red_" << a << ";\n";
  aux << "};\n\n";

  aux << "static void " << fn
      << "(void* blk_varg, int blk_tid, int blk_nt) {\n"
      << "  " << env_ty << "* blk_e = (" << env_ty << "*)blk_varg;\n";
  for (const auto& prm : g_prog->params())
    aux << "  const long " << prm << " = blk_e->" << prm << ";\n";
  for (const auto& v : pe.enclosing)
    aux << "  const long " << v << " = blk_e->" << v << ";\n";
  for (const auto& [name, decl] : g_prog->arrays())
    aux << "  double* const " << name << "_buf = blk_e->" << name
        << "_buf;\n";
  for (const auto& sc : g_prog->scalars()) {
    if (pl.reduction && accs.contains(sc))
      // tid 0 carries the accumulator's incoming value so one thread
      // reproduces the serial kernel bit-for-bit; the rest start at the
      // operation's identity.
      aux << "  double " << sc << " = blk_tid == 0 ? blk_e->" << sc
          << " : " << identity << ";\n";
    else
      aux << "  double " << sc << " = blk_e->" << sc << ";\n";
  }
  aux << "  const long blk_lb = blk_e->blk_lb, blk_ub = blk_e->blk_ub, "
         "blk_st = blk_e->blk_st;\n"
      << "  const long blk_trip = blk_st > 0 ? (blk_ub - blk_lb) / blk_st "
         "+ 1 : (blk_lb - blk_ub) / (-blk_st) + 1;\n"
      << "  const long blk_chunk = blk_trip / blk_nt, blk_rem = blk_trip "
         "% blk_nt;\n"
      << "  const long blk_begin = (long)blk_tid * blk_chunk + "
         "(blk_tid < blk_rem ? blk_tid : blk_rem);\n"
      << "  const long blk_count = blk_chunk + (blk_tid < blk_rem ? 1 : "
         "0);\n"
      << "  for (long blk_i = 0; blk_i < blk_count; ++blk_i) {\n"
      << "    long " << l.var << " = blk_lb + (blk_begin + blk_i) * "
         "blk_st;\n";
  {
    const bool saved = pe.outlining;
    pe.outlining = true;
    emit_stmts(l.body, aux, 2);
    pe.outlining = saved;
  }
  aux << "  }\n";
  if (pl.reduction)
    for (const auto& a : accs)
      aux << "  blk_e->blk_red_" << a << "[blk_tid] = " << a << ";\n";
  if (!written.empty()) {
    aux << "  if (blk_count > 0 && blk_tid == (blk_trip < (long)blk_nt ? "
           "blk_trip : (long)blk_nt) - 1) {\n";
    for (const auto& sc : written)
      aux << "    blk_e->blk_out_" << sc << " = " << sc << ";\n";
    aux << "  }\n";
  }
  aux << "}\n\n";

  // --- the dispatch block, in place of the serial for ---
  pad(os, depth);
  os << "{ /* parallel DO " << l.var << " */\n";
  int d = depth + 1;
  pad(os, d);
  os << "long blk_lb = ";
  emit_iexpr(*l.lb, os);
  os << ", blk_ub = ";
  emit_iexpr(*l.ub, os);
  os << ", blk_st = ";
  emit_iexpr(*l.step, os);
  os << ";\n";
  pad(os, d);
  os << "long blk_trip = blk_st > 0 ? (blk_ub >= blk_lb ? (blk_ub - "
        "blk_lb) / blk_st + 1 : 0) : (blk_lb >= blk_ub ? (blk_lb - "
        "blk_ub) / (-blk_st) + 1 : 0);\n";
  pad(os, d);
  os << "if (blk_trip > 0) {\n";
  ++d;
  pad(os, d);
  os << "int blk_nt = blk_pool_threads();\n";
  pad(os, d);
  os << env_ty << " blk_env;\n";
  pad(os, d);
  os << "blk_env.blk_lb = blk_lb; blk_env.blk_ub = blk_ub; "
        "blk_env.blk_st = blk_st;\n";
  for (const auto& prm : g_prog->params()) {
    pad(os, d);
    os << "blk_env." << prm << " = " << prm << ";\n";
  }
  for (const auto& v : pe.enclosing) {
    pad(os, d);
    os << "blk_env." << v << " = " << v << ";\n";
  }
  for (const auto& [name, decl] : g_prog->arrays()) {
    pad(os, d);
    os << "blk_env." << name << "_buf = " << name << "_buf;\n";
  }
  for (const auto& sc : g_prog->scalars()) {
    pad(os, d);
    os << "blk_env." << sc << " = " << sc << ";\n";
  }
  if (pl.reduction)
    for (const auto& a : accs) {
      pad(os, d);
      os << "double blk_red_" << a << "[blk_nt];\n";
      pad(os, d);
      os << "blk_env.blk_red_" << a << " = blk_red_" << a << ";\n";
    }
  // Tiny trips run inline — same chunks, same tid order, same bits —
  // so wavefront tips never pay a pool dispatch.
  pad(os, d);
  os << "if (blk_nt == 1 || blk_trip < 4L * blk_nt) {\n";
  pad(os, d + 1);
  os << "for (int blk_t = 0; blk_t < blk_nt; ++blk_t) " << fn
     << "(&blk_env, blk_t, blk_nt);\n";
  pad(os, d);
  os << "} else {\n";
  pad(os, d + 1);
  os << "blk_pool_run(" << fn << ", &blk_env, blk_nt);\n";
  pad(os, d);
  os << "}\n";
  if (pl.reduction)
    for (const auto& a : accs) {
      pad(os, d);
      os << a << " = blk_red_" << a << "[0];\n";
      pad(os, d);
      os << "for (int blk_t = 1; blk_t < blk_nt; ++blk_t) " << a << " = "
         << a << comb_op << "blk_red_" << a << "[blk_t];\n";
    }
  for (const auto& sc : written) {
    pad(os, d);
    os << sc << " = blk_env.blk_out_" << sc << ";\n";
  }
  --d;
  pad(os, d);
  os << "}\n";
  pad(os, depth);
  os << "}\n";
}

void emit_stmts(const StmtList& body, std::ostream& os, int depth) {
  for (const auto& s : body) {
    switch (s->kind()) {
      case SKind::Assign: {
        const Assign& a = s->as_assign();
        pad(os, depth);
        if (a.lhs.is_array()) {
          os << a.lhs.name << '(';
          for (std::size_t i = 0; i < a.lhs.subs.size(); ++i) {
            if (i) os << ", ";
            emit_iexpr(*a.lhs.subs[i], os);
          }
          os << ')';
        } else {
          os << a.lhs.name;
        }
        os << " = ";
        emit_vexpr(*a.rhs, os);
        os << ";\n";
        break;
      }
      case SKind::Loop: {
        const Loop& l = s->as_loop();
        const ParallelLoop* pl = nullptr;
        if (g_par) {
          const int idx = g_par->occ[l.var]++;
          if (!g_par->outlining)
            for (const ParallelLoop& cand : g_par->plan->loops)
              if (cand.var == l.var && cand.occurrence == idx) {
                pl = &cand;
                break;
              }
        }
        if (pl) {
          emit_parallel_loop(l, *pl, os, depth);
          break;
        }
        pad(os, depth);
        os << "for (long " << l.var << " = ";
        emit_iexpr(*l.lb, os);
        os << ", " << l.var << "_ub = ";
        emit_iexpr(*l.ub, os);
        os << ", " << l.var << "_st = ";
        emit_iexpr(*l.step, os);
        os << "; " << l.var << "_st > 0 ? " << l.var << " <= " << l.var
           << "_ub : " << l.var << " >= " << l.var << "_ub; " << l.var
           << " += " << l.var << "_st) {\n";
        if (g_par) g_par->enclosing.push_back(l.var);
        emit_stmts(l.body, os, depth + 1);
        if (g_par) g_par->enclosing.pop_back();
        pad(os, depth);
        os << "}\n";
        break;
      }
      case SKind::If: {
        const If& f = s->as_if();
        pad(os, depth);
        static constexpr const char* kOps[] = {"==", "!=", "<",
                                               "<=", ">",  ">="};
        os << "if (";
        emit_vexpr(*f.cond.lhs, os);
        os << ' ' << kOps[static_cast<int>(f.cond.op)] << ' ';
        emit_vexpr(*f.cond.rhs, os);
        os << ") {\n";
        emit_stmts(f.then_body, os, depth + 1);
        if (!f.else_body.empty()) {
          pad(os, depth);
          os << "} else {\n";
          emit_stmts(f.else_body, os, depth + 1);
        }
        pad(os, depth);
        os << "}\n";
        break;
      }
    }
  }
}

/// The persistent fork-join pool compiled into every parallel kernel.
/// Workers are joinable and a destructor-attribute shutdown joins them
/// before dlclose unmaps the code they run — no thread ever outlives the
/// shared object.  The main thread always works as tid 0; helper tids are
/// fixed at creation, so the iteration-space partition never depends on
/// which thread got scheduled first.
///
/// Dispatch is spin-then-sleep: wavefront kernels enter a parallel region
/// per diagonal (O(N) regions of O(N) work each), so a condvar roundtrip
/// per region would swamp the region itself.  Workers spin on the atomic
/// generation counter for BLK_PAR_SPIN loads (a few milliseconds — the
/// budget must dwarf the inter-region gap, or workers doze off mid-sweep
/// and every region pays a futex roundtrip) before falling back to the
/// condvar, and the main thread spins on the join counter with
/// sched_yield.  All cross-thread handoff is through
/// release stores / acquire loads of `gen` and `remaining`, so the plain
/// fn/env/nt fields and the workers' array writes are properly ordered —
/// the emitted code is clean under -fsanitize=thread.
void emit_pool(std::ostream& os, int threads) {
  os << "#include <pthread.h>\n"
        "#include <sched.h>\n"
        "#include <stdatomic.h>\n"
        "#include <stdlib.h>\n"
        "#include <unistd.h>\n\n"
        "#define BLK_PAR_THREADS "
     << threads
     << "\n"
        "#define BLK_PAR_MAX_THREADS 256\n"
        "#define BLK_PAR_SPIN 4000000L\n\n"
        "typedef void (*blk_par_fn_t)(void*, int, int);\n\n"
        "static struct {\n"
        "  pthread_mutex_t mu;\n"
        "  pthread_cond_t go;\n"
        "  pthread_t workers[BLK_PAR_MAX_THREADS];\n"
        "  int nt;        /* latched worker count incl. the main thread "
        "*/\n"
        "  int launched;  /* helper threads created so far */\n"
        "  _Atomic int quit;\n"
        "  _Atomic unsigned long gen;\n"
        "  _Atomic int remaining;\n"
        "  _Atomic int sleeping;\n"
        "  blk_par_fn_t fn;\n"
        "  void* env;\n"
        "} blk_pool = {PTHREAD_MUTEX_INITIALIZER, "
        "PTHREAD_COND_INITIALIZER};\n\n"
        "static void* blk_pool_worker(void* blk_arg) {\n"
        "  const int blk_tid = (int)(long)blk_arg;\n"
        "  unsigned long blk_seen = 0UL;\n"
        "  for (;;) {\n"
        "    long blk_spins = 0;\n"
        "    while (atomic_load_explicit(&blk_pool.gen, "
        "memory_order_acquire) == blk_seen &&\n"
        "           !atomic_load_explicit(&blk_pool.quit, "
        "memory_order_acquire)) {\n"
        "      if (++blk_spins < BLK_PAR_SPIN) continue;\n"
        "      pthread_mutex_lock(&blk_pool.mu);\n"
        "      atomic_fetch_add_explicit(&blk_pool.sleeping, 1, "
        "memory_order_relaxed);\n"
        "      while (atomic_load_explicit(&blk_pool.gen, "
        "memory_order_acquire) == blk_seen &&\n"
        "             !atomic_load_explicit(&blk_pool.quit, "
        "memory_order_acquire))\n"
        "        pthread_cond_wait(&blk_pool.go, &blk_pool.mu);\n"
        "      atomic_fetch_sub_explicit(&blk_pool.sleeping, 1, "
        "memory_order_relaxed);\n"
        "      pthread_mutex_unlock(&blk_pool.mu);\n"
        "      break;\n"
        "    }\n"
        "    if (atomic_load_explicit(&blk_pool.quit, "
        "memory_order_acquire)) break;\n"
        "    blk_seen = atomic_load_explicit(&blk_pool.gen, "
        "memory_order_acquire);\n"
        "    blk_par_fn_t blk_fn = blk_pool.fn;\n"
        "    void* blk_env = blk_pool.env;\n"
        "    int blk_nt = blk_pool.nt;\n"
        "    blk_fn(blk_env, blk_tid, blk_nt);\n"
        "    atomic_fetch_sub_explicit(&blk_pool.remaining, 1, "
        "memory_order_acq_rel);\n"
        "  }\n"
        "  return 0;\n"
        "}\n\n"
        "static int blk_pool_threads(void) {\n"
        "  if (blk_pool.nt > 0) return blk_pool.nt;\n"
        "  int blk_nt = BLK_PAR_THREADS;\n"
        "  if (blk_nt <= 0) {\n"
        "    const char* blk_s = getenv(\"BLK_THREADS\");\n"
        "    if (blk_s && *blk_s) blk_nt = atoi(blk_s);\n"
        "    if (blk_nt <= 0) blk_nt = "
        "(int)sysconf(_SC_NPROCESSORS_ONLN);\n"
        "    if (blk_nt <= 0) blk_nt = 1;\n"
        "  }\n"
        "  if (blk_nt > BLK_PAR_MAX_THREADS) blk_nt = "
        "BLK_PAR_MAX_THREADS;\n"
        "  blk_pool.nt = blk_nt;\n"
        "  return blk_nt;\n"
        "}\n\n"
        "static void blk_pool_run(blk_par_fn_t blk_fn, void* blk_env, int "
        "blk_nt) {\n"
        "  if (blk_pool.launched < blk_nt - 1) {\n"
        "    pthread_mutex_lock(&blk_pool.mu);\n"
        "    while (blk_pool.launched < blk_nt - 1) {\n"
        "      if (pthread_create(&blk_pool.workers[blk_pool.launched], "
        "0,\n"
        "                         blk_pool_worker,\n"
        "                         (void*)(long)(blk_pool.launched + 1)) != "
        "0)\n"
        "        break;\n"
        "      ++blk_pool.launched;\n"
        "    }\n"
        "    pthread_mutex_unlock(&blk_pool.mu);\n"
        "  }\n"
        "  const int blk_helpers =\n"
        "      blk_pool.launched < blk_nt - 1 ? blk_pool.launched : blk_nt "
        "- 1;\n"
        "  blk_pool.fn = blk_fn;\n"
        "  blk_pool.env = blk_env;\n"
        "  atomic_store_explicit(&blk_pool.remaining, blk_helpers, "
        "memory_order_relaxed);\n"
        "  atomic_fetch_add_explicit(&blk_pool.gen, 1, "
        "memory_order_release);\n"
        "  if (atomic_load_explicit(&blk_pool.sleeping, "
        "memory_order_relaxed) > 0) {\n"
        "    pthread_mutex_lock(&blk_pool.mu);\n"
        "    pthread_cond_broadcast(&blk_pool.go);\n"
        "    pthread_mutex_unlock(&blk_pool.mu);\n"
        "  }\n"
        "  blk_fn(blk_env, 0, blk_nt);\n"
        "  /* chunks of helpers that failed to launch run here, in tid "
        "order */\n"
        "  for (int blk_t = blk_helpers + 1; blk_t < blk_nt; ++blk_t)\n"
        "    blk_fn(blk_env, blk_t, blk_nt);\n"
        "  long blk_spins = 0;\n"
        "  while (atomic_load_explicit(&blk_pool.remaining, "
        "memory_order_acquire) > 0)\n"
        "    if (++blk_spins > BLK_PAR_SPIN) sched_yield();\n"
        "}\n\n"
        "__attribute__((destructor)) static void blk_pool_shutdown(void) "
        "{\n"
        "  pthread_mutex_lock(&blk_pool.mu);\n"
        "  atomic_store_explicit(&blk_pool.quit, 1, "
        "memory_order_release);\n"
        "  pthread_cond_broadcast(&blk_pool.go);\n"
        "  pthread_mutex_unlock(&blk_pool.mu);\n"
        "  for (int blk_t = 0; blk_t < blk_pool.launched; ++blk_t)\n"
        "    pthread_join(blk_pool.workers[blk_t], 0);\n"
        "  blk_pool.launched = 0;\n"
        "}\n\n";
}

}  // namespace

std::string ParallelOptions::summary() const {
  std::ostringstream os;
  os << "threads=" << threads << " loops=[";
  for (std::size_t i = 0; i < loops.size(); ++i) {
    const ParallelLoop& l = loops[i];
    if (i) os << ' ';
    os << l.var << '#' << l.occurrence;
    if (l.reduction) {
      os << ":red("
         << (l.combine == ParallelLoop::Combine::Product ? "product"
                                                         : "sum");
      for (const auto& a : l.accumulators) os << ':' << a;
      os << ')';
    }
  }
  os << ']';
  return os.str();
}

std::string emit_c(const Program& p, const std::string& fn_name,
                   const EmitOptions& opts) {
  g_prog = &p;
  const bool par = opts.parallel && opts.parallel->enabled();
  ParEmit pe;
  if (par) {
    pe.plan = opts.parallel;
    g_par = &pe;
  }
  std::ostringstream os;
  os << "/* generated by blockability emit_c */\n";
  if (par) os << "/* parallel: " << opts.parallel->summary() << " */\n";
  os << "#include <math.h>\n"
     << "#define BLK_MIN(a, b) ((a) < (b) ? (a) : (b))\n"
     << "#define BLK_MAX(a, b) ((a) > (b) ? (a) : (b))\n"
     << "/* floor/ceil division toward -inf/+inf for positive divisors */\n"
     << "#define BLK_FDIV(a, b) ((a) >= 0 ? (a) / (b) "
        ": -((-(a) + (b) - 1) / (b)))\n"
     << "#define BLK_CDIV(a, b) ((a) >= 0 ? ((a) + (b) - 1) / (b) "
        ": -((-(a)) / (b)))\n\n";

  // Column-major element macros with the declared lower bounds folded in.
  for (const auto& [name, decl] : p.arrays()) {
    os << "#define " << name << '(';
    for (std::size_t d = 0; d < decl.rank(); ++d) {
      if (d) os << ", ";
      os << 'i' << d;
    }
    os << ") " << name << "_buf[";
    std::string stride;
    for (std::size_t d = 0; d < decl.rank(); ++d) {
      if (d) os << " + ";
      os << '(';
      os << "(i" << d << ") - (";
      emit_iexpr(*decl.dims[d].lb, os);
      os << ')';
      os << ')';
      if (!stride.empty()) os << " * " << stride;
      // Extend the running stride by this dimension's extent.
      std::ostringstream ext;
      ext << "((";
      emit_iexpr(*decl.dims[d].ub, ext);
      ext << ") - (";
      emit_iexpr(*decl.dims[d].lb, ext);
      ext << ") + 1)";
      stride = stride.empty() ? ext.str() : stride + " * " + ext.str();
    }
    os << "]\n";
  }
  os << '\n';
  if (par) emit_pool(os, opts.parallel->threads);

  // The body walk fills pe.aux with outlined workers, which must precede
  // the kernel function in the unit — so emit the body first, then splice.
  // Compiler temporaries are plain locals: only program scalars take a
  // slot of the scalar block.
  std::ostringstream body;
  {
    std::size_t slot = 0;
    for (const auto& sc : p.scalars()) {
      body << "  double " << sc << " = ";
      if (opts.scalar_io && !p.is_temporary(sc))
        body << "blk_scalars[" << slot++ << "]";
      else
        body << "0.0";
      body << ";\n";
    }
  }
  emit_stmts(p.body, body, 1);
  if (opts.scalar_io) {
    std::size_t slot = 0;
    for (const auto& sc : p.scalars())
      if (!p.is_temporary(sc))
        body << "  blk_scalars[" << slot++ << "] = " << sc << ";\n";
  }

  if (par) os << pe.aux.str();
  os << "void " << fn_name << '(';
  bool first = true;
  for (const auto& prm : p.params()) {
    if (!first) os << ", ";
    first = false;
    os << "long " << prm;
  }
  for (const auto& [name, decl] : p.arrays()) {
    if (!first) os << ", ";
    first = false;
    os << "double* restrict " << name << "_buf";
  }
  if (opts.scalar_io) {
    if (!first) os << ", ";
    first = false;
    os << "double* blk_scalars";
  }
  os << ") {\n" << body.str() << "}\n";

  if (opts.entry_wrapper) {
    // The uniform ABI: parameter values in declaration order, array base
    // pointers in name order, the scalar block last.  One symbol with one
    // signature, whatever the program's shape.
    os << "\nvoid " << fn_name
       << "_entry(const long* blk_params, double* const* blk_arrays, "
          "double* blk_scalars) {\n"
       << "  (void)blk_params; (void)blk_arrays; (void)blk_scalars;\n"
       << "  " << fn_name << '(';
    bool f2 = true;
    std::size_t pi = 0;
    for (const auto& prm : p.params()) {
      (void)prm;
      if (!f2) os << ", ";
      f2 = false;
      os << "blk_params[" << pi++ << ']';
    }
    std::size_t ai = 0;
    for (const auto& arr : p.arrays()) {
      (void)arr;
      if (!f2) os << ", ";
      f2 = false;
      os << "blk_arrays[" << ai++ << ']';
    }
    if (opts.scalar_io) {
      if (!f2) os << ", ";
      f2 = false;
      os << "blk_scalars";
    }
    os << ");\n}\n";
  }
  g_prog = nullptr;
  g_par = nullptr;
  return os.str();
}

}  // namespace blk::ir
