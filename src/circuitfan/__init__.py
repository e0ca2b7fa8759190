"""Exact-arithmetic circuits sets, weight initial ideals and Groebner-fan
cells for homogeneous polynomial ideals."""

from .ring import (
    PolyRing,
    Polynomial,
    PrimeField,
    QQ,
    RationalField,
    Substitution,
    field_from_spec,
    homogenize_w,
    initial_form_w,
    make_weight,
    poly_str,
    weight_value,
)
from .order import CANONICAL, DRL, LEX, MonomialOrder, leading_term, parse_order, weighted
from .linalg import GradedMatrix, graded_basis, initial_space_w, span_matrix
from .groebner import (
    GroebnerBasis,
    HilbertData,
    IdealHandle,
    buchberger_reduced,
    hilbert_function,
    homogenize_ideal_w,
    ideal_equal,
    initial_ideal,
    initial_ideal_w,
    normal_form,
    parse_ideal_file,
    specialize_t,
    transform_ideal,
)
from .circuits import (
    AlphaVector,
    CircuitsSet,
    alpha_vector,
    circuits_of_space,
    circuits_truncated,
    initial_circuits,
    is_circuit,
)
from .generic import (
    BorelOmegaElement,
    RandomSpec,
    UncertifiedError,
    borel_omega_sample,
    gcs_truncated,
    normalize_weight,
    random_change,
    stab_check,
)
from .fan import (
    Cone,
    FanSketch,
    cone_of,
    enumerate_fan,
    generic_fan_compare,
    newton_fan_oracle,
    universal_basis,
    weight_equiv,
)

__version__ = "0.1.0"
