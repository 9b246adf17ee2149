"""Photon-pair spectral propagation through cavity-material systems.

Pipeline: build a frequency grid and block dynamical matrix, assemble the
input covariance from a joint spectral amplitude, solve the regularized
Lyapunov equation for the all-time-integrated correlations, apply the
scattering map to obtain the output covariance, and extract spectra and
entanglement metrics.  A brute-force time-domain oracle certifies the
algebraic path on small instances.

``__all__`` holds the pipeline and the observables.  The linear-algebra
kernels and the time-domain oracle are the submodules ``pairspec.numkit``
and ``pairspec.oracle``.
"""

from . import numkit, oracle
from .model import (
    BlockLayout,
    DynamicalMatrix,
    FrequencyGrid,
    SystemParams,
    build_dynamical_matrix,
    build_grid,
    mev_to_nm,
    nm_to_mev,
)
from .observables import (
    PurityResult,
    SchmidtSpectrum,
    purity,
    schmidt,
    von_neumann_entropy,
    wigner,
)
from .scattering import (
    DEFAULT_EPSILON,
    PropagationResult,
    ScatteringMatrix,
    extract_output_jsa,
    propagate,
    scattering_matrix,
    time_integrated_covariance,
)
from .states import (
    CovarianceMatrix,
    JointSpectralAmplitude,
    JointSpectralIntensity,
    assemble_input_covariance,
    gaussian_jsa,
    jsa_from_jsi,
    jsi_of,
    load_jsa,
    load_jsi,
    save_jsa,
    save_jsi,
)

__version__ = "0.1.0"

__all__ = [
    "BlockLayout",
    "CovarianceMatrix",
    "DEFAULT_EPSILON",
    "DynamicalMatrix",
    "FrequencyGrid",
    "JointSpectralAmplitude",
    "JointSpectralIntensity",
    "PropagationResult",
    "PurityResult",
    "ScatteringMatrix",
    "SchmidtSpectrum",
    "SystemParams",
    "assemble_input_covariance",
    "build_dynamical_matrix",
    "build_grid",
    "extract_output_jsa",
    "gaussian_jsa",
    "jsa_from_jsi",
    "jsi_of",
    "load_jsa",
    "load_jsi",
    "mev_to_nm",
    "nm_to_mev",
    "propagate",
    "purity",
    "save_jsa",
    "save_jsi",
    "scattering_matrix",
    "schmidt",
    "time_integrated_covariance",
    "von_neumann_entropy",
    "wigner",
]
