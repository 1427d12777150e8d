"""Exact enumeration of 2-factors (spanning unions of disjoint cycles) on
thin-cylinder, torus and Klein-bottle grid graphs.

The counting engine walks transfer digraphs built from circular column
codes; an independent brute-force oracle, recurrence/generating-function
extraction and spectral estimates round out the toolkit.  See the README
for the command-line interface and the verification harness.
"""

from .alphabet import (
    AlphaLetter,
    LETTERS,
    count_io_words,
    enumerate_column_words,
    horizontal_convert,
    inlet,
    outlet,
    rotate,
    vertical_convert,
)
from .counting import (
    GridSpec,
    Series,
    Spectrum,
    count,
    count_kb,
    count_tg,
    count_tnc,
    series,
    verify_route_agreement,
    zero_component_spectrum,
)
from .exactmat import amplitude_estimate
from .oracle import Multigraph, build_grid, count_grid, count_two_factors
from .recurrence import (
    RationalGF,
    Recurrence,
    SeriesTooShort,
    certified_recurrence,
    expand,
    minimal_recurrence,
    order_report,
    to_generating_function,
)
from .transfer import (
    ComponentCensus,
    ResourceLimitError,
    TransferDigraph,
    build_full,
    build_glued,
    build_reduced,
    components,
    component_subdigraph,
)

__version__ = "0.1.0"
