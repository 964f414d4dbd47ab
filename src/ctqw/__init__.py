"""Continuous-time quantum walks on structured graph families.

Builders for the graph families under study, closed-form and dense
eigensystems, instantaneous and limiting walk distributions, mixing
metrics, and a verification harness for the mixing statements.
"""

__version__ = "0.1.0"

from .graphs import (
    AbelianGroupSpec,
    Graph,
    GraphValidationError,
    Symbol,
    build_abelian_circulant,
    build_bunkbed,
    build_complete,
    build_complete_bipartite,
    build_cycle,
    build_hypercube,
    build_path,
    from_adjacency,
    graph_from_json,
    graph_to_json,
)
from .spectra import (
    CharacterTable,
    DegeneracyPartition,
    Spectrum,
    abelian_circulant_eigensystem,
    bunkbed_eigensystem,
    class_circulant_eigenvalues,
    degeneracy_classes,
    dense_eigensystem,
    dense_eigensystems,
    graph_eigensystem,
    path_eigensystem,
    spectral_gap,
    spectrum_type,
)
from .walk import (
    average_distribution,
    bunkbed_instantaneous,
    evolve,
    instantaneous_distribution,
)
from .mixing import (
    MixingReport,
    VerifyConfig,
    average_uniform_deviation,
    complete_graph_average,
    cycle_fourier_bound,
    instantaneous_mixing_scan,
    lazy_stationary,
    path_start_average,
    total_variation,
    uniform_target,
    verify_all,
)
from .ensembles import (
    EnsembleStats,
    ensemble_stats,
    random_circulants,
    type_spectrum_exhaustive,
)
