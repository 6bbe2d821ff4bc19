"""Optimal allocation of identical objects under capacity-constrained verification.

Compute the constraint envelope, the optimal guarantee and its interim
rules, simulate the ex-post mechanism, and decide exact feasibility of
interim rules on finite type grids.
"""

from .distributions import (
    TypeDistribution,
    expected_value,
    from_config,
    make_power,
    make_uniform,
    truncated_mean,
)
from .envelope import (
    ProblemInstance,
    RegionInterval,
    RegionPartition,
    c_allo,
    c_aud,
    c_ic,
    d_c_allo,
    d_c_aud,
    d_c_ic,
    envelope_value,
    partition,
)
from .flows import (
    CheckSet,
    DiscreteInstance,
    ExPostRule,
    FeasibilityVerdict,
    ViolatingSet,
    border_lhs,
    border_rhs,
    brute_force_verdict,
    check_feasible,
    check_interim_allocation,
    check_interim_audit,
    construct_expost,
    discretize_rules,
    upper_set_report,
)
from .interim import (
    InterimRules,
    bic_slack,
    interim_integral,
    merit_with_guarantee,
)
from .optimizer import (
    Candidate,
    SolveReport,
    baseline_payoffs,
    foc_residual,
    payoff,
    solve,
)
from .simulation import (
    BinWeights,
    CalibrationError,
    EpicWitness,
    SimReport,
    audit_select,
    calibrate_audit,
    calibrate_lottery,
    epic_counterexample,
    lottery_allocate,
    merit_allocate,
    simulate,
)

__version__ = "0.1.0"
