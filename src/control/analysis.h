// Classical discrete-time analysis tools complementing the pole-placement
// machinery: the Jury stability criterion (algebraic, no root finding),
// frequency response along the unit circle with gain/phase margins, and
// root-locus data. The paper cites exactly this toolbox ("Bode plots, root
// locus analysis or ... stability criterion", Sec. II-D).
// cpm-lint: allow(orphan) kept for the conformance check, ROADMAP.md item 6
#pragma once

#include <optional>
#include <vector>

#include "control/transfer_function.h"

namespace cpm::control {

/// Jury-Marden stability test: true iff all roots of `p` (a polynomial in z)
/// lie strictly inside the unit circle. Degree-0/zero polynomials are
/// trivially stable (no roots). Purely algebraic -- an independent check on
/// the root-finder-based analysis.
bool jury_stable(const Polynomial& p);

struct FrequencyPoint {
  double omega = 0.0;          // rad/sample, in (0, pi]
  double magnitude = 0.0;      // |H(e^{j omega})|
  double phase_rad = 0.0;      // arg H, unwrapped
  double magnitude_db = 0.0;   // 20 log10 |H|
};

/// Samples H(e^{j omega}) at `points` logarithmically spaced frequencies in
/// [omega_min, pi] with phase unwrapping (Bode data).
std::vector<FrequencyPoint> frequency_response(const TransferFunction& h,
                                               std::size_t points = 200,
                                               double omega_min = 1e-3);

struct StabilityMargins {
  /// Gain margin (linear): how much loop gain can grow before instability
  /// (at the -180 deg phase crossover). Empty if the phase never crosses.
  std::optional<double> gain_margin;
  /// Phase margin in radians (at the unity-gain crossover). Empty if the
  /// magnitude never crosses 1.
  std::optional<double> phase_margin_rad;
};

/// Margins of the *open-loop* transfer function L = C*P.
StabilityMargins stability_margins(const TransferFunction& open_loop,
                                   std::size_t points = 2000);

/// Root locus of the unity-feedback closed loop of k * open_loop, for each
/// gain in `gains`: returns one pole set per gain.
std::vector<std::vector<std::complex<double>>> root_locus(
    const TransferFunction& open_loop, const std::vector<double>& gains);

}  // namespace cpm::control
