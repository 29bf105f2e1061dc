#include "kernels/conv.hpp"

namespace blk::kernels {

ConvProblem ConvProblem::make_aconv(long size, std::uint64_t seed) {
  ConvProblem p;
  p.n1 = size - 1;
  p.n2 = 6 * p.n1 / 7;  // ~75% of the work in the triangular region
  p.n3 = size - 1;
  p.f1 = Signal(0, p.n1);
  p.f2 = Signal(-p.n2, 0);
  p.f3 = Signal(0, p.n3);
  fill_random(p.f1, seed);
  fill_random(p.f2, seed + 1);
  fill_random(p.f3, seed + 2);
  return p;
}

ConvProblem ConvProblem::make_conv(long size, std::uint64_t seed) {
  ConvProblem p;
  p.n1 = size - 1;
  p.n2 = 6 * p.n1 / 7;
  p.n3 = size - 1;
  p.f1 = Signal(0, p.n1);
  p.f2 = Signal(0, p.n2);
  p.f3 = Signal(0, p.n3);
  fill_random(p.f1, seed);
  fill_random(p.f2, seed + 1);
  fill_random(p.f3, seed + 2);
  return p;
}

}  // namespace blk::kernels
