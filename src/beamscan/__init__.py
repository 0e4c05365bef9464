"""Block-based Bayesian association mapping of marginal and epistatic SNP sets.

The model couples an LD-block partition of the SNP panel with a three-group
membership vector (unassociated, marginally associated, jointly associated)
and samples both by MCMC; small panels can be checked against exhaustive
enumeration, and candidate sets are scored with a Bayes-factor statistic.
"""

__version__ = "0.1.0"
