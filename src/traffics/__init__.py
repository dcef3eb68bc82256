"""Traffic distributions of random band matrices.

Test graphs and graph polynomials (:mod:`traffics.graphs`), the exact and
Monte Carlo trace engine (:mod:`traffics.engine`), limiting traffic
distributions of the band regimes (:mod:`traffics.limits`), independence
and freeness checks (:mod:`traffics.independence`), moment expansion
(:mod:`traffics.moments`), sampling (:mod:`traffics.ensembles`) and the
``traffics`` command line (:mod:`traffics.cli`).
"""

from .engine import (
    Estimate,
    central_moment_estimate,
    estimate_traffic_state,
    eval_graph_matrix,
    trace_injective,
    trace_test_graph,
)
from .ensembles import (
    BandProfile,
    EntrySpec,
    MatrixModel,
    band_mask,
    markov,
    sample_haar_orthogonal,
    stream,
)
from .graphs import (
    Edge,
    GraphMonomial,
    NGraphMonomial,
    TestGraph,
    TrafficPolynomial,
    canonical_form,
    canonical_key,
    col_op,
    concat_product,
    delta,
    delta_n,
    directed_cycle,
    edge_classes,
    edge_monomial,
    eta,
    hadamard,
    parse_dsl,
    quotient,
    row_op,
    serialize,
    shape_sum,
    substitute,
    substitute_graph,
    unit_monomial,
)
from .independence import (
    ChiGraph,
    FreenessTest,
    IndependenceReport,
    build_double_tree_corpus,
    chi_graph,
    colored_components,
    free_cumulants,
    free_mixed_moment,
    freeness_moment_test,
    independent_prediction,
    is_free_product,
    noncrossing_partitions,
    verify_traffic_independence,
    witness_graphs,
)
from .limits import (
    CactusReport,
    DoubleTreeReport,
    catalan,
    classify_double_tree,
    classify_orthogonal_cactus,
    cut_integral,
    cut_probability,
    double_tree_code,
    double_tree_quotients,
    fixed_band_count,
    fixed_band_density,
    fixed_band_ltd,
    forest_transform,
    haar_ltd,
    ltd_trace,
    model_ltd,
    norm_factor,
    rbm_ltd,
    wigner_ltd,
)
from .moments import (
    clt_alpha_split,
    gaussian_moment,
    markov_element,
    markov_moments,
    mixed_moment_ltd,
    parse_poly,
    semicircle_moment,
    traffic_moment,
)
from .partitions import enumerate_partitions, mobius_zero, pair_partitions

__version__ = "0.1.0"
