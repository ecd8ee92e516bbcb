"""Exact symbolic computations in the bc-beta-gamma vertex algebra:
mode products, graded bases, sl2 invariants, and the half-plane section
calculus that assembles global-section dimensions over closed curves.
"""

from .linalg import Matrix
from .freefield import (BETA, GAMMA, B, C, VACUUM, Q_STATE, L_STATE, J_STATE,
                        G_STATE, apply_mode, apply_word, normalize,
                        nth_product, translate, weight_charge, wick, mon_str,
                        state_str)
from .basis import basis_block, enumerate_basis, enumerate_full, split_by_s
from .modeops import ModeOperator, mode_words, pair
from .sl2 import InvariantSpace, character, invariants, sl2_L, sl2_Lplus
from .chart import ChartFn, MetricData, metric_data
from .geometry import (FormSection, case3_kernel, chain_residuals,
                       curvature_op, dbar_prime, dbar_star, dbar_total, f1,
                       f2, dim_global, h0_canonical, nabla_gamma, n1_fiber,
                       seed_section, solve_recursion)
