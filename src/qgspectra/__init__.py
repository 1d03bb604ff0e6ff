"""Spectra of scaling quantum graphs.

The bond potentials of these networks scale with energy, which makes the
secular equation a finite sum of cosines in the momentum k; eigenvalues
are the squares of its positive roots.  This package canonicalizes such
sums, regularizes them through a ladder of derivatives until the leading
cosine dominates, and then extracts every root with certified one-root
brackets.  An independent scan and a counting-law audit cross-check the
fast path.
"""

from .graphs import (
    ChainGraphSpec,
    StarGraphSpec,
    build_chain,
    build_star,
    chain_reflections,
    random_chain,
    random_star,
    star_actions,
    star_amplitudes,
)
from .oracle import OracleReport, WeylAudit, compare, scan_roots, weyl_audit
from .solver import (
    INTERIOR,
    SEPARATOR_COINCIDENCE,
    LadderSolution,
    RefinementStall,
    RootEntry,
    RootTable,
    SeparatorFailure,
    SolverConfig,
    descend_level,
    regular_separators,
    solve_ladder,
)
from .specfile import LoadedSpec, SpecFileError, load_graph_spec, trig_spec_data
from .trig import (
    REGULARITY_MARGIN,
    DerivativeLadder,
    Derivatives,
    NormalizeError,
    OrderCapError,
    Term,
    TrigSpectralFunction,
    build_ladder,
    derivative_level,
    is_regular,
    normalize,
    regularity_sum,
)

__version__ = "0.1.0"

__all__ = [
    "Term",
    "TrigSpectralFunction",
    "DerivativeLadder",
    "NormalizeError",
    "OrderCapError",
    "normalize",
    "derivative_level",
    "Derivatives",
    "build_ladder",
    "regularity_sum",
    "REGULARITY_MARGIN",
    "is_regular",
    "StarGraphSpec",
    "ChainGraphSpec",
    "build_star",
    "build_chain",
    "star_actions",
    "star_amplitudes",
    "chain_reflections",
    "random_star",
    "random_chain",
    "SolverConfig",
    "RootEntry",
    "RootTable",
    "LadderSolution",
    "SeparatorFailure",
    "RefinementStall",
    "INTERIOR",
    "SEPARATOR_COINCIDENCE",
    "solve_ladder",
    "descend_level",
    "regular_separators",
    "scan_roots",
    "compare",
    "weyl_audit",
    "OracleReport",
    "WeylAudit",
    "LoadedSpec",
    "SpecFileError",
    "load_graph_spec",
    "trig_spec_data",
    "__version__",
]
