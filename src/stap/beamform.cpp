#include "stap/beamform.hpp"

#include <algorithm>

#include "linalg/cgemm.hpp"

namespace pstap::stap {

BeamArray Beamformer::apply(const BinArray& spectra, const WeightSet& weights) const {
  const std::size_t bytes =
      spectra.bins() * params_.beams * spectra.ranges() * sizeof(cfloat);
  BeamArray out(spectra.bins(), params_.beams, spectra.ranges(),
                Buffer::allocate(bytes));
  apply_into(spectra, weights, out);
  return out;
}

void Beamformer::apply_into(const BinArray& spectra, const WeightSet& weights,
                            BeamArray& out) const {
  PSTAP_REQUIRE(weights.bins() == spectra.bins(), "weights/spectra bin mismatch");
  PSTAP_REQUIRE(weights.dof() == spectra.dof(), "weights/spectra dof mismatch");
  PSTAP_REQUIRE(weights.beams() == params_.beams, "weights beam count mismatch");
  PSTAP_REQUIRE(out.bins() == spectra.bins() && out.beams() == params_.beams &&
                    out.ranges() == spectra.ranges(),
                "beamform output shape mismatch");

  const std::size_t bins = spectra.bins();
  const std::size_t dof = spectra.dof();
  const std::size_t nr = spectra.ranges();

  // One batched GEMM per bin: Y(beams x ranges) += conj(W)(beams x dof) *
  // X(dof x ranges). The per-bin weight rows, range series, and output rows
  // are all contiguous with fixed leading dimensions, so the whole
  // (beam x dof x range) triple loop collapses into a single register-
  // blocked kernel call; the packed W tile is reused across range chunks.
  // Each bin's output block is zeroed just before its GEMM accumulates
  // into it, while it is about to be in cache anyway.
  linalg::CgemmScratch scratch;
  for (std::size_t b = 0; b < bins; ++b) {
    cfloat* y = out.range_series(b, 0).data();
    std::fill(y, y + params_.beams * nr, cfloat{});
    linalg::cgemv_rows(params_.beams, dof, nr, weights.at(b, 0).data(), dof,
                       spectra.range_series(b, 0).data(), nr, y, nr, scratch);
  }
}

}  // namespace pstap::stap
