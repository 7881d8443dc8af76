"""Exact counting and desk-scale verification of Alder-type partition inequalities."""

from .counting import (big_q, big_q_minus, big_q_minus_minus, delta,
                       delta_minus, delta_minus_minus, g_script, l_script,
                       q_count, rho, set_cache_dir)
from .inequalities import (STATEMENTS, GridSpec, VerificationReport,
                           check_andrews, dominates, evaluate_cell,
                           gen_kp_sets, n_hat, search_counterexamples, verify,
                           verify_smalln_anchors, xy_difference_report)
from .injection import (PartitionStats, enumerate_partitions, phi1, phi2,
                        stats, verify_injection, verify_injection_exhaustive)
from .partset import (RefusedInput, ResidueClassSet, pm_set,
                      positive_integers, r_of, s_set, t_set, x_closed,
                      y_closed)

__version__ = "0.1.0"
