"""Edit distance functions of hereditary properties forbidding powers of cycles.

The package computes, at desk scale and with exact rational arithmetic where
it matters: clique spectra of cycle powers, g-functions of colored
regularity graphs by exhaustive simplex optimization, graph-to-CRG
embeddings by backtracking, the closed-form curves those searches must
reproduce, and a verification harness tying all of it together.
"""

from .crg import (
    BLACK,
    GRAY,
    WHITE,
    Crg,
    color_swap,
    component_sets,
    crg_from_json,
    crg_from_pairs,
    crg_to_json,
    k_a_g,
    k_rs,
    random_crg,
    rate_matrix,
    standard_corpus,
    sub_crg,
)
from .curves import (
    CurveSample,
    MaxPoint,
    black_part_g_bound,
    branch_crossings,
    curve_peak,
    curve_samples,
    default_p_grid,
    ed_closed,
    ed_covered,
    gamma_closed,
    gamma_closed_with_branch,
    max_point,
)
from .embed import (
    GrayCycleReport,
    embeds,
    find_embedding,
    gray_cycle_crg,
    gray_cycle_embedding_report,
    verify_embedding,
)
from .errors import (
    EdcyclesError,
    EmbedTimeoutError,
    NonConcavityError,
    NonConvergenceError,
    ParameterDomainError,
    SizeExceededError,
)
from .gfunction import (
    DegreeReport,
    GValue,
    degree_report,
    g_endpoint,
    g_krs,
    g_value,
    is_p_core,
    p_core_structure_ok,
)
from .graphs import (
    Graph,
    PowerCycleParams,
    chromatic_number,
    chromatic_overshoot_witness,
    graph_from_json,
    graph_to_json,
    partitionable,
    power_cycle,
    spectrum_partition_witness,
)
from .spectrum import (
    CliqueSpectrum,
    clique_spectrum,
    gamma,
    power_cycle_spectrum,
)

__version__ = "0.1.0"
