"""Spectral representations of Coxeter Cayley graphs and their
optimal-mixing random walks."""

from .coxeter import (
    BUILTIN_NAMES,
    CoxeterDatum,
    ReflectionGroup,
    build_group,
    coxeter_datum,
    generate_group,
    reflection_matrix,
    simple_roots,
)
from .coxmaps import (
    FundamentalPoint,
    edge_lengths_closed_form,
    fundamental_point,
    fundamental_vectors,
    psi_delta_inverse,
    psi_lambda_of,
    psi_maps,
)
from .errors import CoxspecError
from .fourier import RepSpectrum, crosscheck_mu1, rep_fourier
from .mesh import MeshDocument, build_cayley_mesh, build_orbit_mesh, export_obj, export_off
from .randwalk import (
    build_operator,
    project_to_simplex,
    sample_interior,
    simplex_point,
    uniform_point,
)
from .solids import (
    CriticalReport,
    CurveSample,
    Sweep,
    boundary_limit,
    closed_form_minimum,
    critical_certificate,
    curve_point,
    minimize_lambda1,
    sweep_lambda1,
)
from .spectral import (
    SpectralCluster,
    block_spectrum,
    check_faithful,
    edge_class_lengths,
    gram_invariance_check,
    lambda1,
    lambda1_cluster,
    spectral_representation,
    spectrum_clusters,
)

__version__ = "0.1.0"
