#include "sa/sa.hpp"

#include "sa/checks.hpp"
#include "verify/lint.hpp"

namespace blk::sa {

SaResult analyze(ir::Program& p, const SaOptions& opt) {
  SaResult out;
  out.report = verify::lint(p, {.ctx = opt.ctx, .pedantic = opt.pedantic});
  out.verdicts = certify(p, {.ctx = opt.ctx});
  out.report.merge(verdict_report(out.verdicts));
  out.report.merge(check_races(p, out.verdicts, opt.ctx));
  out.report.merge(check_dead_stores(p, {.ctx = opt.ctx}));
  out.report.merge(check_uninit_reads(p, {.ctx = opt.ctx}));
  out.report.canonicalize();
  return out;
}

}  // namespace blk::sa
