"""Workbench for online submodular welfare maximization.

Greedy allocation under random arrival order, exact gain instrumentation
on small instances, and the factor-revealing linear programs that lower
bound greedy's competitive ratio.
"""

from .core import Allocation, GreedyRun, Instance, greedy, optimal, union, welfare
from .errors import (AxiomViolationError, InstanceFormatError,
                     InvalidQueryError, SizeGuardError, SwmlabError)
from .gain import (GainContext, GainTrace, build_A_prime, conjecture_check,
                   expected_trace, gain, gain_set, trace_one, verify_eq1,
                   verify_lemmas, verify_second_half)
from .instances import (instance_from_spec, instance_to_spec, load_instance,
                        random_family_instance, random_instance, save_instance)
from .lp import (LpModel, LpSolution, build_lp_beta, build_lp_beta_lambda,
                 build_lp_general, closed_form_beta_lambda,
                 closed_form_general, combined_secondorder_bound,
                 simplex_solve, solve, solve_beta, solve_beta_lambda,
                 solve_general)
from .oracles import (ValuationOracle, check_axioms, check_R_submodular,
                      classify_second_order, gain_reduction, make_additive,
                      make_b_matching, make_budgeted_additive, make_coverage,
                      make_cut, make_table, marginal_gain, spot_check_axioms,
                      tabulate, value)

__version__ = "0.1.0"
