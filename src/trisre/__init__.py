"""Simulation and tail-constant estimation for bivariate triangular
stochastic recurrence equations.

The state recursion multiplies by an upper-triangular random 2x2 matrix
and adds random noise. The two coordinates can carry power-law tails with
different indices; when the indices coincide the first coordinate picks
up an extra log-power factor whose exponent and constant this package
predicts and measures.
"""

from .distributions import (Constant, Dist, Lognormal, Normal, Scaled,
                            SignedLognormal, TwoSidedPareto, Uniform,
                            abs_moment, abs_moment_derivative,
                            abs_normal_moment, dist_from_dict, dist_to_dict,
                            log_abs_moment, mean, sample, sign_moment,
                            signed_moment, tilted)
from .errors import (ArgumentOutOfRange, DegenerateTail, InsufficientSupport,
                     LogMomentUndefined, MomentDiverges, NoRoot,
                     NonPositiveOrderStat, NotContractive, RegimeMismatch,
                     RequiresEqualDiagonal, RequiresExactTilt, RequiresMuZero,
                     TiltUnsupported, TrisreError, UnsupportedRegime,
                     WeightDegenerate)
from .estimates import EstimateWithError
from .model import (EqualDiagonal, IndependentEntries, IndependentOffDiagonal,
                    ProportionalToDiagonal, TriangularSRE, draw_innovations,
                    model_from_dict, model_to_dict)
from .regime import (CheckResult, RegimeReport, SignSummary, classify,
                     solve_tail_index)
from .rng import RngStream, default_workers
from .scenarios import (AsymptoticPrediction, ScenarioConfig, ScenarioReport,
                        builtin_scenarios, emit_report, load_config, predict,
                        run_scenario, run_suite)
from .stationary import (StationaryBatch, sample_stationary_batch,
                         truncation_depth)
from .tails import (EmpiricalTail, TailSelection, ccdf, ccdf_se,
                    default_log_grid, goldie_constant_direct, grey_constants,
                    hill, log_factor_regression)
from .tilting import (PartialSumStudy, SnapshotMoments, clt_constant,
                      coord1_steps, coupling_sum_moments,
                      estimate_coupling_rate, estimate_coupling_weight,
                      estimate_weight_series, goldie_constant_perpetuity,
                      law_steps, tilted_offdiag_moments)

__version__ = "0.1.0"
