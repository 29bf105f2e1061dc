#include "kernels/ir_kernels.hpp"

#include "ir/builder.hpp"

namespace blk::kernels {

using namespace blk::ir;
using namespace blk::ir::dsl;

Program sum_example_ir() {
  Program p;
  p.param("N");
  p.param("M");
  p.array("A", {v("M")});
  p.array("B", {v("N")});
  p.add(loop("J", c(1), v("N"),
             loop("I", c(1), v("M"),
                  assign(lv("A", {v("I")}),
                         a("A", {v("I")}) + a("B", {v("J")}), 10))));
  return p;
}

Program partial_recurrence_ir() {
  Program p;
  p.param("N");
  p.array("A", {v("N")});
  p.array("T", {v("N")});
  p.add(loop("I", c(1), v("N"),
             assign(lv("T", {v("I")}), a("A", {v("I")})),
             loop("K", v("I"), v("N"),
                  assign(lv("A", {v("K")}),
                         a("A", {v("K")}) + a("T", {v("I")}), 10))));
  return p;
}

Program aconv_ir() {
  Program p;
  p.param("N1");
  p.param("N2");
  p.param("N3");
  p.scalar("DT");
  p.array_bounds("F1", {{.lb = c(0), .ub = v("N1")}});
  p.array_bounds("F2", {{.lb = c(0) - v("N2"), .ub = c(0)}});
  p.array_bounds("F3", {{.lb = c(0), .ub = v("N3")}});
  p.add(loop("I", c(0), v("N3"),
             loop("K", v("I"), imin(v("I") + v("N2"), v("N1")),
                  assign(lv("F3", {v("I")}),
                         a("F3", {v("I")}) +
                             s("DT") * a("F1", {v("K")}) *
                                 a("F2", {v("I") - v("K")}),
                         10))));
  return p;
}

Program conv_ir() {
  Program p;
  p.param("N1");
  p.param("N2");
  p.param("N3");
  p.scalar("DT");
  p.array_bounds("F1", {{.lb = c(0), .ub = v("N1")}});
  p.array_bounds("F2", {{.lb = c(0), .ub = v("N2")}});
  p.array_bounds("F3", {{.lb = c(0), .ub = v("N3")}});
  p.add(loop("I", c(0), v("N3"),
             loop("K", imax(c(0), v("I") - v("N2")),
                  imin(v("I"), v("N1")),
                  assign(lv("F3", {v("I")}),
                         a("F3", {v("I")}) +
                             s("DT") * a("F1", {v("K")}) *
                                 a("F2", {v("I") - v("K")}),
                         10))));
  return p;
}

Program matmul_guarded_ir() {
  Program p;
  p.param("N");
  p.array("A", {v("N"), v("N")});
  p.array("B", {v("N"), v("N")});
  p.array("C", {v("N"), v("N")});
  p.add(loop(
      "J", c(1), v("N"),
      loop("K", c(1), v("N"),
           when(cmp(a("B", {v("K"), v("J")}), CmpOp::NE, f(0.0)),
                loop("I", c(1), v("N"),
                     assign(lv("C", {v("I"), v("J")}),
                            a("C", {v("I"), v("J")}) +
                                a("A", {v("I"), v("K")}) *
                                    a("B", {v("K"), v("J")}),
                            10))))));
  return p;
}

Program lu_point_ir() {
  Program p;
  p.param("N");
  p.array("A", {v("N"), v("N")});
  p.add(loop(
      "K", c(1), v("N") - 1,
      loop("I", v("K") + 1, v("N"),
           assign(lv("A", {v("I"), v("K")}),
                  a("A", {v("I"), v("K")}) / a("A", {v("K"), v("K")}), 20)),
      loop("J", v("K") + 1, v("N"),
           loop("I", v("K") + 1, v("N"),
                assign(lv("A", {v("I"), v("J")}),
                       a("A", {v("I"), v("J")}) -
                           a("A", {v("I"), v("K")}) *
                               a("A", {v("K"), v("J")}),
                       10)))));
  return p;
}

Program lu_pivot_point_ir() {
  Program p;
  p.param("N");
  p.array("A", {v("N"), v("N")});
  p.scalar("IMAX");
  p.scalar("TAU");
  p.add(loop(
      "K", c(1), v("N") - 1,
      // Pivot search: IMAX = argmax |A(I,K)| over I = K..N.
      assign(lvs("IMAX"), vindex(v("K"))),
      loop("I", v("K") + 1, v("N"),
           when(cmp(vun(UnOp::Abs, a("A", {v("I"), v("K")})), CmpOp::GT,
                    vun(UnOp::Abs, a("A", {ivar("IMAX"), v("K")}))),
                assign(lvs("IMAX"), vindex(v("I"))))),
      // Row interchange K <-> IMAX (statements 25/30).
      loop("J", c(1), v("N"),
           assign(lvs("TAU"), a("A", {v("K"), v("J")})),
           assign(lv("A", {v("K"), v("J")}),
                  a("A", {ivar("IMAX"), v("J")}), 25),
           assign(lv("A", {ivar("IMAX"), v("J")}), s("TAU"), 30)),
      // Elimination (statements 20/10).
      loop("I", v("K") + 1, v("N"),
           assign(lv("A", {v("I"), v("K")}),
                  a("A", {v("I"), v("K")}) / a("A", {v("K"), v("K")}), 20)),
      loop("J", v("K") + 1, v("N"),
           loop("I", v("K") + 1, v("N"),
                assign(lv("A", {v("I"), v("J")}),
                       a("A", {v("I"), v("J")}) -
                           a("A", {v("I"), v("K")}) *
                               a("A", {v("K"), v("J")}),
                       10)))));
  return p;
}

Program givens_qr_ir() {
  Program p;
  p.param("M");  // rows
  p.param("N");  // columns
  p.array("A", {v("M"), v("N")});
  for (const char* sc : {"DEN", "C", "S", "A1", "A2"}) p.scalar(sc);
  p.add(loop(
      "L", c(1), v("N"),
      loop("J", v("L") + 1, v("M"),
           when(cmp(a("A", {v("J"), v("L")}), CmpOp::NE, f(0.0)),
                assign(lvs("DEN"),
                       vsqrt(a("A", {v("L"), v("L")}) *
                                 a("A", {v("L"), v("L")}) +
                             a("A", {v("J"), v("L")}) *
                                 a("A", {v("J"), v("L")}))),
                assign(lvs("C"), a("A", {v("L"), v("L")}) / s("DEN")),
                assign(lvs("S"), a("A", {v("J"), v("L")}) / s("DEN")),
                loop("K", v("L"), v("N"),
                     assign(lvs("A1"), a("A", {v("L"), v("K")})),
                     assign(lvs("A2"), a("A", {v("J"), v("K")})),
                     assign(lv("A", {v("L"), v("K")}),
                            s("C") * s("A1") + s("S") * s("A2")),
                     assign(lv("A", {v("J"), v("K")}),
                            vneg(s("S")) * s("A1") + s("C") * s("A2"),
                            10))))));
  return p;
}

Program stencil2d_ir() {
  Program p;
  p.param("N");
  p.array_bounds("A", {{.lb = c(0), .ub = v("N")},
                       {.lb = c(0), .ub = v("N")}});
  p.add(loop("I", c(1), v("N"),
             loop("J", c(1), v("N"),
                  assign(lv("A", {v("I"), v("J")}),
                         f(0.25) * (a("A", {v("I") - c(1), v("J")}) +
                                    a("A", {v("I"), v("J") - c(1)})),
                         10))));
  return p;
}

}  // namespace blk::kernels
