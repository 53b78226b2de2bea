"""archpi: certified pi enclosures from polygon geometry.

Arbitrary-precision dyadic interval arithmetic with outward rounding,
regular-polygon refinements bracketing pi, circuits on the unit circle,
certified chord/tangent comparison checks, winding chord paths, and
sine/cosine grounded in arclength inversion.
"""

from .dyadic import Dyadic
from .interval import Interval, Verdict, compare_certain
from .polygons import (
    RegularScheme,
    SchemeMeasures,
    circumscribed_edge,
    halve_edge,
    iter_scheme_measures,
    pi_bounds,
    pi_digits,
    pi_enclosure,
    romberg_bounds,
    scheme_measures,
    seed_edge,
    vertex_gap,
)
from .circuits import (
    Circuit,
    CircuitMeasures,
    CirclePoint,
    circuit_measures,
    distance,
    random_circuit,
    regular_ring,
    step_by_chord,
    tangent_intersection,
    unit_start,
)
from .chords import (
    ArcSpec,
    CompareResult,
    PartitionProfile,
    chord_compare,
    partition_profile,
    solve_regular_chord,
    tangent_compare,
)
from .rational import (
    RationalLength,
    coprime_pairs,
    gamma_path,
    normalized_compare,
    realize_rational,
    winding_count,
)
from .trig import (
    SandwichReport,
    geometric_cos,
    geometric_point,
    geometric_sin,
    sandwich_report,
)
from .suites import SUITES, SuiteResult, run_suite
from . import errors

__version__ = "0.1.0"

__all__ = [
    "Dyadic",
    "Interval",
    "Verdict",
    "compare_certain",
    "RegularScheme",
    "SchemeMeasures",
    "seed_edge",
    "halve_edge",
    "circumscribed_edge",
    "vertex_gap",
    "scheme_measures",
    "iter_scheme_measures",
    "pi_bounds",
    "romberg_bounds",
    "pi_enclosure",
    "pi_digits",
    "CirclePoint",
    "Circuit",
    "CircuitMeasures",
    "unit_start",
    "distance",
    "step_by_chord",
    "tangent_intersection",
    "circuit_measures",
    "regular_ring",
    "random_circuit",
    "ArcSpec",
    "PartitionProfile",
    "CompareResult",
    "solve_regular_chord",
    "partition_profile",
    "chord_compare",
    "tangent_compare",
    "RationalLength",
    "realize_rational",
    "gamma_path",
    "winding_count",
    "normalized_compare",
    "coprime_pairs",
    "geometric_point",
    "geometric_sin",
    "geometric_cos",
    "SandwichReport",
    "sandwich_report",
    "SUITES",
    "SuiteResult",
    "run_suite",
    "errors",
]
