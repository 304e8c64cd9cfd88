"""Point-process samplers, coherence kernels, and an exact Fock-space oracle.

The package connects three layers: closed-form correlation kernels
(`kernels`), samplers and estimators for the point processes they induce
(`gaussian_field`, `samplers`, `estimators`), and the exact machinery
that grounds them (`wick`, `fock`, `builder`).
"""

from .builder import (
    GrandCanonicalSpec,
    induced_kernel,
    levels_to_spectrum,
    log_partition_function,
    rotate_measurement_basis,
    spectrum_to_levels,
    two_mode_unitary,
    zero_temperature_spectrum,
)
from .estimators import PcfEstimate, count_statistics, estimate_intensity, estimate_pcf
from .gaussian_field import (
    analytic_signal,
    sample_complex_circular_gp,
    sample_stationary_gp,
)
from .kernels import (
    HermiteBasis,
    SpectralKernel,
    StationaryCovariance,
    analytic_lorentz_kernel,
    chiral_thermal_kernel,
    fermi_sea_kernel_3d,
    gram_matrix,
    hermite_projection_kernel,
    kernel_from_spec,
    lorentz_kernel,
    theoretical_pcf,
)
from .samplers import (
    PointConfiguration,
    Window,
    sample_cox,
    sample_dpp_mixture_batch,
    sample_fock_pp_batch,
    sample_permanental_batch,
    sample_poisson_batch,
)
from .wick import (
    Contraction,
    alpha_determinant,
    correlator_value,
    determinant,
    enumerate_contractions,
    permanent,
    wick_expand,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
