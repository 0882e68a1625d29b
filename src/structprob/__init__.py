"""Probabilistic structured prediction over combinatorial output spaces.

Exponential-family models p(y|x) ~ exp(<phi(x,y), theta>) where y ranges
over a combinatorial family (label sets, rankings, rooted subtrees, simple
cycles).  The package provides exact uniform samplers for those families,
exact and approximate Gibbs samplers built on them, a randomized
approximation scheme for the partition function and its gradient, MAP
training by projected gradient descent, and brute-force oracles that verify
all of the above at desk scale.
"""

from .errors import (
    CapExceeded,
    DimensionMismatch,
    EpochBudgetExhausted,
    InsufficientSamples,
    InvalidEpsilon,
    SamplerFailure,
    StructProbError,
    TooFewRuns,
    WrongSpace,
    ZeroInput,
)
from .model import (
    Dataset,
    Instance,
    Params,
    effective_norm_budget,
    joint_features,
    ln_count,
    load_dataset,
    norm_budget_from_space,
    random_unit_theta,
    save_dataset,
    score,
)
from .oracle import (
    ExactDistribution,
    chi_square_gof,
    chi_square_two_sample,
    exact_argmax,
    exact_distribution,
    exact_gradient,
    exact_partition,
    hamiltonicity_via_partition,
    has_hamiltonian_cycle,
)
from .partition import (
    CoolingSchedule,
    GradientEstimate,
    PartitionEstimate,
    RatioEstimate,
    boost_by_median,
    build_schedule,
    estimate_gradient,
    estimate_partition,
    estimate_ratio,
    hoeffding_sample_size,
    oracle_ratio_moments,
    oracle_ratio_range,
    required_runs,
    sample_size,
    tv_target,
)
from .samplers import (
    GibbsTarget,
    SamplerReport,
    chain_state_indices,
    meta_step,
    mixing_time_bound,
    sample_approx,
    sample_approx_batch,
    sample_exact_cftp,
    sample_exact_cftp_batch,
    sample_rejection,
    sample_rejection_batch,
)
from .spaces import (
    CyclicPermutations,
    Hypercube,
    OutputSpace,
    Permutations,
    RootedTree,
    Structure,
    Subtrees,
    read_edge_list,
    read_tree_file,
    space_from_descriptor,
    structure_from_json,
    subtree_counts,
)
from .streams import stream
from .training import (
    AnnealConfig,
    TrainConfig,
    TrainTrace,
    gradient,
    load_model,
    make_toy_dataset,
    objective,
    predict_map,
    save_model,
    train,
)

__version__ = "0.1.0"
