"""Block-based Bayesian association mapping of marginal and epistatic SNP sets.

The model couples an LD-block partition of the SNP panel with a three-group
membership vector (unassociated, marginally associated, jointly associated)
and samples both by MCMC; small panels can be checked against exhaustive
enumeration, and candidate sets are scored with a Bayes-factor statistic.
"""

__version__ = "0.1.0"

from .dataio import (
    DataFormatError,
    GenotypeDataset,
    hwe_filter,
    load_dataset,
    write_dataset,
)
from .likelihood import LikelihoodEngine, log_marginal
from .model import (
    BlockPartition,
    ConstraintError,
    JointModel,
    MembershipVector,
    ModelConstraints,
    PriorConfig,
    default_priors,
)
from .mcmc import (
    PosteriorSummary,
    Schedule,
    default_schedule,
    run_chain,
    run_chains,
)
from .oracle import OracleGuardError, OracleResult, enumerate_posterior
from .bstat import (
    BStatResult,
    NullCalibration,
    bstat,
    fit_shift_constant,
    null_calibration,
    permutation_null,
    posterior_candidates,
)
from .simulate import (
    DiseaseModel,
    FounderBlock,
    FounderPool,
    PoolError,
    SimulatedDataset,
    TruthInfo,
    disease_pool,
    drop_loci,
    random_pool,
    simulate_dataset,
    solve_theta,
)

__all__ = [
    "__version__",
    "DataFormatError",
    "GenotypeDataset",
    "hwe_filter",
    "load_dataset",
    "write_dataset",
    "LikelihoodEngine",
    "log_marginal",
    "BlockPartition",
    "ConstraintError",
    "JointModel",
    "MembershipVector",
    "ModelConstraints",
    "PriorConfig",
    "default_priors",
    "PosteriorSummary",
    "Schedule",
    "default_schedule",
    "run_chain",
    "run_chains",
    "OracleGuardError",
    "OracleResult",
    "enumerate_posterior",
    "BStatResult",
    "NullCalibration",
    "bstat",
    "null_calibration",
    "fit_shift_constant",
    "permutation_null",
    "posterior_candidates",
    "DiseaseModel",
    "FounderBlock",
    "FounderPool",
    "PoolError",
    "SimulatedDataset",
    "TruthInfo",
    "disease_pool",
    "drop_loci",
    "random_pool",
    "simulate_dataset",
    "solve_theta",
]
