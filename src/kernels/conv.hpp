// §3.2 convolution inputs: the oil-exploration loops' signals.  The loops
// themselves are the IR programs aconv_ir()/conv_ir() (ir_kernels.hpp);
// the compiler derives their optimized forms with optconv.
#pragma once

#include "kernels/matrix.hpp"

namespace blk::kernels {

/// Problem instance for both convolutions.  The paper's experiment uses
/// n3 = size with 75% of the work in the triangular regions; make_conv
/// picks n1 = size-1 and n2 = 6*n1/7 to reproduce that split.
struct ConvProblem {
  long n1 = 0, n2 = 0, n3 = 0;
  double dt = 0.25;
  Signal f1;  ///< (0:N1)
  Signal f2;  ///< conv: (0:N2); aconv: (-N2:0)
  Signal f3;  ///< (0:N3), output

  [[nodiscard]] static ConvProblem make_aconv(long size, std::uint64_t seed);
  [[nodiscard]] static ConvProblem make_conv(long size, std::uint64_t seed);
};

}  // namespace blk::kernels
