import dataclasses
import functools
import importlib.util
import itertools
import json
import math
import random
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Union

import numpy as np
import pytest

import swmlab as sl
import swmlab.cli as cli_module
import swmlab.lp as lp_module
from swmlab.cli import main as cli_main
from swmlab.lp import (DEGENERATE_LIMIT, LAMBDA_THRESHOLD, GENERAL_LIMIT,
                       PIVOT_TOL, LpModel, LpSolution, _beta_lambda_pair,
                       _beta_pair, _certified_solution, _check_model,
                       _check_n, _column_excess, _float_matrix,
                       _leaving_row, _row_shortfall, _to_fraction,
                       build_lp_beta, build_lp_beta_lambda, build_lp_general,
                       closed_form_beta_lambda, closed_form_general,
                       combined_secondorder_bound, simplex_solve, solve,
                       solve_beta, solve_beta_lambda, solve_general,
                       COMBINED_BETA_STAR)

BENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

scipy_opt = pytest.importorskip("scipy.optimize")
scipy_sparse = pytest.importorskip("scipy.sparse")

SOLVE_TOL = 1e-8
FEAS_TOL = 1e-9
KERNEL_TOL = 1e-9    # simplex_solve against reference_simplex
EXACT_TOL = 1e-12    # solve_general against a float solver


def sparse_float_matrix(model: LpModel):
    """A as a scipy CSR matrix built from the segments: the nonzero float
    entries of ``lp._float_matrix``, with no dense matrix on the way."""
    floats = lp_module._shared_sequences(model.segments, lambda seq: np.array(
        [c.numerator / c.denominator if c else 0.0 for c in seq]))
    rows, cols, vals = [np.zeros(0, int)], [np.zeros(0, int)], [np.zeros(0)]
    for r, row in enumerate(model.segments):
        for col, coeffs, k in row:
            rows.append(np.full(k, r))
            cols.append(np.arange(col, col + k))
            vals.append(floats[id(coeffs)][:k])
    matrix = scipy_sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(model.num_rows, model.num_vars))
    matrix.eliminate_zeros()
    return matrix


def scipy_optimum(model: LpModel) -> float:
    """Independent solve: scipy's HiGHS handles minimize c.x,
    A_ub x <= b_ub, with A_ub read sparse from the segments."""
    a_ub = -sparse_float_matrix(model)
    b_ub = -np.array([float(v) for v in model.rhs])
    c = np.array([float(v) for v in model.objective])
    res = scipy_opt.linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None),
                            method="highs")
    assert res.status == 0, res.message
    return res.fun + float(model.constant)


# ---------------------------------------------------------------------------
# Test-only references: dense models, builders that construct every
# coefficient afresh, the element-wise float conversion, and a dense
# two-phase simplex with Bland's rule, stored artificial columns and a
# full-tableau update.
# ---------------------------------------------------------------------------

def dense_model(objective, rows, *args, **kwargs) -> LpModel:
    """An ``LpModel`` from dense rational rows, each one segment."""
    return LpModel(objective, [[(0, row, len(row))] for row in rows],
                   *args, **kwargs)


def elementwise_floats(rows) -> np.ndarray:
    """Float copy of a rational matrix, element by element; zero
    coefficients skip the division.  The reference ``lp._float_matrix`` is
    held to."""
    return np.array([[c.numerator / c.denominator if c else 0.0 for c in row]
                     for row in rows])


def reference_trace_lp(n: int, beta: Fraction, pos_hi: int, sh_lo: int,
                       metadata: dict) -> LpModel:
    """Shared builder: position rows for i <= pos_hi, second-half rows for
    i > sh_lo."""
    half = n // 2

    var_names = ([f"w_{i}" for i in range(1, n + 1)]
                 + [f"a_{i}" for i in range(1, n + 1)]
                 + [f"b_{i}" for i in range(1, n + 1)]
                 + [f"g_{i}" for i in range(half + 1, n + 1)])
    ncols = len(var_names)

    def w(i): return i - 1
    def a(i): return n + i - 1
    def b(i): return 2 * n + i - 1
    def g(i): return 3 * n + (i - half) - 1

    objective = [Fraction(0)] * ncols
    for i in range(1, n + 1):
        objective[w(i)] = Fraction(1)

    rows, rhs, row_names = [], [], []

    for i in range(1, n + 1):
        row = [Fraction(0)] * ncols
        row[w(i)] = Fraction(1)
        row[a(i)] = Fraction(-1)
        row[b(i)] = Fraction(-1)
        rows.append(row)
        rhs.append(Fraction(0))
        row_names.append(f"step_split_{i}")

    for i in range(1, pos_hi + 1):
        row = [Fraction(0)] * ncols
        row[w(i)] = Fraction(1)
        for j in range(1, i):
            row[a(j)] = Fraction(1, n - j)
        rows.append(row)
        rhs.append(Fraction(1, n))
        row_names.append(f"position_{i}")

    for i in range(sh_lo + 1, n + 1):
        row = [Fraction(0)] * ncols
        row[w(i)] = Fraction(1)
        row[g(i)] = Fraction(1)
        for j in range(1, half + 1):
            row[a(j)] = Fraction(-2, n) * Fraction(j, n - j)
            row[b(j)] = Fraction(2, n)
        rows.append(row)
        rhs.append(Fraction(0))
        row_names.append(f"second_half_{i}")

    row = [Fraction(0)] * ncols
    for i in range(1, half + 1):
        row[b(i)] = Fraction(-1)
    for i in range(half + 1, n + 1):
        row[g(i)] = Fraction(-1)
    rows.append(row)
    rhs.append(-beta)
    row_names.append("slack_budget")

    return dense_model(objective, rows, rhs, var_names, row_names, metadata)


def reference_general_lp(n: int) -> LpModel:
    """The general lower-bound program over a_i, b_i for i <= 3n/4.

    Minimize sum_{i<=n/2}((1 + (i - n/4)/(6(n-i))) a_i + 5/6 b_i)
           + sum_{n/2<i<=3n/4}((5/6 + (n/4)/(6(n-i))) a_i + 5/6 b_i)
    subject to a_i + b_i >= 1/n - sum_{j<i} a_j/(n-j) for i = 1..3n/4.
    The additive constant 1/24 is carried in ``constant`` and included in
    reported objective values.
    """
    _check_n(n)
    half, three_q = n // 2, 3 * n // 4
    var_names = ([f"a_{i}" for i in range(1, three_q + 1)]
                 + [f"b_{i}" for i in range(1, three_q + 1)])
    ncols = len(var_names)

    def a(i): return i - 1
    def b(i): return three_q + i - 1

    objective = [Fraction(0)] * ncols
    quarter = Fraction(n, 4)
    for i in range(1, half + 1):
        objective[a(i)] = 1 + Fraction(i - quarter, 6 * (n - i))
        objective[b(i)] = Fraction(5, 6)
    for i in range(half + 1, three_q + 1):
        objective[a(i)] = Fraction(5, 6) + Fraction(quarter, 6 * (n - i))
        objective[b(i)] = Fraction(5, 6)

    rows, rhs, row_names = [], [], []
    for i in range(1, three_q + 1):
        row = [Fraction(0)] * ncols
        row[a(i)] = Fraction(1)
        row[b(i)] = Fraction(1)
        for j in range(1, i):
            row[a(j)] = Fraction(1, n - j)
        rows.append(row)
        rhs.append(Fraction(1, n))
        row_names.append(f"position_{i}")

    return dense_model(objective, rows, rhs, var_names, row_names,
                       {"family": "general_lb", "n": n},
                       constant=Fraction(1, 24))


def _reference_pivot(tab: np.ndarray, basis: list[int], r: int, c: int):
    tab[r] /= tab[r, c]
    col = tab[:, c].copy()
    col[r] = 0.0
    tab -= np.outer(col, tab[r])
    basis[r] = c


def _reference_bland_iterate(tab: np.ndarray, basis: list[int], ncols: int,
                   max_iter: int) -> tuple[str, int]:
    """Run simplex iterations on a tableau whose last row holds reduced
    costs (to be driven non-negative) and last column the rhs."""
    it = 0
    while True:
        cost = tab[-1, :ncols]
        entering = -1
        for jx in range(ncols):
            if cost[jx] < -PIVOT_TOL:
                entering = jx
                break
        if entering < 0:
            return "optimal", it
        ratios = []
        for r in range(tab.shape[0] - 1):
            if tab[r, entering] > PIVOT_TOL:
                ratios.append((tab[r, -1] / tab[r, entering], basis[r], r))
        if not ratios:
            return "unbounded", it
        ratios.sort(key=lambda t: (t[0], t[1]))   # Bland: lowest basis index
        _reference_pivot(tab, basis, ratios[0][2], entering)
        it += 1
        if it > max_iter:
            raise RuntimeError("simplex iteration limit exceeded")


def reference_simplex(model: LpModel) -> LpSolution:
    """Two-phase dense primal simplex with Bland's rule.

    The model's >= rows get surplus variables; phase 1 drives artificial
    variables out, phase 2 minimizes the true objective.  Reported
    objective includes the model constant.
    """
    m, nv = model.num_rows, model.num_vars
    A = np.array([[float(c) for c in row] for row in model.rows])
    bvec = np.array([float(v) for v in model.rhs])
    cvec = np.array([float(v) for v in model.objective])

    # standard form: [A | -I_surplus] x = b, then flip rows to make b >= 0
    full = np.hstack([A, -np.eye(m)])
    for r in range(m):
        if bvec[r] < 0:
            full[r] *= -1.0
            bvec[r] *= -1.0
    ncols = nv + m
    tab = np.zeros((m + 1, ncols + m + 1))
    tab[:m, :ncols] = full
    tab[:m, ncols:ncols + m] = np.eye(m)       # artificials
    tab[:m, -1] = bvec
    basis = [ncols + r for r in range(m)]

    # phase 1: minimize the artificial sum
    tab[-1, ncols:ncols + m] = 1.0
    for r in range(m):
        tab[-1] -= tab[r]
    status, it1 = _reference_bland_iterate(tab, basis, ncols + m,
                                           10000 * (m + ncols))
    if status != "optimal" or tab[-1, -1] < -FEAS_TOL:
        return LpSolution("infeasible", math.nan, None, math.nan, it1)

    # drive any leftover artificial out of the basis or drop its row
    keep = []
    for r in range(m):
        if basis[r] >= ncols:
            pivot_col = -1
            for jx in range(ncols):
                if abs(tab[r, jx]) > PIVOT_TOL:
                    pivot_col = jx
                    break
            if pivot_col >= 0:
                _reference_pivot(tab[:m + 1], basis, r, pivot_col)
                keep.append(r)
            # else: redundant row, drop it
        else:
            keep.append(r)
    tab = np.vstack([tab[keep][:, list(range(ncols)) + [-1]],
                     np.zeros(ncols + 1)])
    basis = [basis[r] for r in keep]

    # phase 2: true objective
    tab[-1, :nv] = cvec
    for r, bi in enumerate(basis):
        if tab[-1, bi] != 0.0:
            tab[-1] -= tab[-1, bi] * tab[r]
    status, it2 = _reference_bland_iterate(tab, basis, ncols,
                                           10000 * (m + ncols))
    if status == "unbounded":
        return LpSolution("unbounded", -math.inf, None, math.nan, it1 + it2)

    x = np.zeros(ncols)
    for r, bi in enumerate(basis):
        x[bi] = tab[r, -1]
    x = x[:nv]
    rhs0 = np.array([float(v) for v in model.rhs])
    violation = float(np.max(np.maximum(rhs0 - A @ x, 0.0), initial=0.0))
    obj = float(cvec @ x) + float(model.constant)
    return LpSolution("optimal", obj, x, violation, it1 + it2)


def rebuild_beta_rows(n, lam, beta):
    """Second, independent row-by-row regeneration of the trace LP as
    {var_name: coeff} dicts, straight from the constraint formulas."""
    lam_n = int(_to_fraction(lam) * n)
    half = n // 2
    rows = []
    for i in range(1, n + 1):
        rows.append(({f"w_{i}": Fraction(1), f"a_{i}": Fraction(-1),
                      f"b_{i}": Fraction(-1)}, Fraction(0)))
    for i in range(1, lam_n + 1):
        coeffs = {f"w_{i}": Fraction(1)}
        for j in range(1, i):
            coeffs[f"a_{j}"] = Fraction(1, n - j)
        rows.append((coeffs, Fraction(1, n)))
    for i in range(lam_n + 1, n + 1):
        coeffs = {f"w_{i}": Fraction(1), f"g_{i}": Fraction(1)}
        for j in range(1, half + 1):
            coeffs[f"a_{j}"] = -Fraction(j, n - j) / half
            coeffs[f"b_{j}"] = Fraction(1, half)
        rows.append((coeffs, Fraction(0)))
    coeffs = {f"b_{i}": Fraction(-1) for i in range(1, half + 1)}
    coeffs.update({f"g_{i}": Fraction(-1) for i in range(half + 1, n + 1)})
    rows.append((coeffs, -_to_fraction(beta)))
    return rows


def model_rows_as_dicts(model):
    out = []
    for row, rhs in zip(model.rows, model.rhs):
        coeffs = {name: c for name, c in zip(model.var_names, row) if c != 0}
        out.append((coeffs, rhs))
    return out


class TestBuilders:
    def test_beta_n4_counts(self):
        model = build_lp_beta(4, 0)
        assert model.num_rows == 11
        assert model.num_vars == 14

    def test_beta_matches_independent_regeneration(self):
        for n, beta in [(4, 0), (8, Fraction(1, 100))]:
            model = build_lp_beta(n, beta)
            # the full model keeps position rows for all i and second-half
            # rows for i > n/2
            expected = rebuild_beta_rows(n, Fraction(1), beta)
            mid = [({f"w_{i}": Fraction(1), f"g_{i}": Fraction(1),
                     **{f"a_{j}": -Fraction(j, n - j) / (n // 2)
                        for j in range(1, n // 2 + 1)},
                     **{f"b_{j}": Fraction(1, n // 2)
                        for j in range(1, n // 2 + 1)}}, Fraction(0))
                   for i in range(n // 2 + 1, n + 1)]
            expected = expected[:-1][:2 * n] + mid + [expected[-1]]
            assert model_rows_as_dicts(model) == expected

    def test_beta_lambda_matches_independent_regeneration(self):
        for n, lam in [(8, Fraction(3, 4)), (16, Fraction(13, 16))]:
            model = build_lp_beta_lambda(n, lam, 0)
            assert model_rows_as_dicts(model) == rebuild_beta_rows(n, lam, 0)

    def test_beta_lambda_row_subset_of_full_model(self):
        # lambda = 1 drops every second-half row; what remains is a strict
        # subset of the full model's rows, so its optimum can only be lower
        full = model_rows_as_dicts(build_lp_beta(8, 0))
        relaxed = model_rows_as_dicts(build_lp_beta_lambda(8, 1, 0))
        assert all(r in full for r in relaxed)
        assert len(relaxed) < len(full)
        s_full = simplex_solve(build_lp_beta(8, 0)).objective
        s_rel = simplex_solve(build_lp_beta_lambda(8, 1, 0)).objective
        assert s_rel <= s_full + FEAS_TOL

    def test_beta_lambda_n8_lam_three_quarters_positions(self):
        model = build_lp_beta_lambda(8, Fraction(3, 4), 0)
        pos = [name for name in model.row_names if name.startswith("position")]
        assert pos == [f"position_{i}" for i in range(1, 7)]

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            build_lp_beta_lambda(8, Fraction(99, 100), 0)   # 7.92 not integral
        with pytest.raises(ValueError):
            build_lp_beta_lambda(8, Fraction(1, 4), 0)      # below 1/2

    def test_invalid_n(self):
        for n in (0, 3, 6):
            with pytest.raises(ValueError):
                build_lp_beta(n, 0)
            with pytest.raises(ValueError):
                build_lp_general(n)

    def test_general_n4_counts(self):
        model = build_lp_general(4)
        assert model.num_rows == 3
        assert model.num_vars == 6
        assert model.constant == Fraction(1, 24)

    @pytest.mark.parametrize("n", [8, 16, 64, 256])
    def test_general_objective_is_the_eq1_decomposition(self, n):
        """sum_{i<=n/2}(a_i + b_i) + 5/6 sum_{n/2<i<=3n/4}(a_i + b_i) + R/6,
        with R = 1/4 + sum_{i<=n/2}((i - n/4)/(n-i) a_i - b_i)
        + sum_{n/2<i<=3n/4} (n/4)/(n-i) a_i, eq1's right-hand side."""
        half, quarter = n // 2, Fraction(n, 4)
        positions = range(1, 3 * n // 4 + 1)
        weight = [Fraction(1) if i <= half else Fraction(5, 6)
                  for i in positions]
        r_a = [(i - quarter if i <= half else quarter) / (n - i)
               for i in positions]
        r_b = [Fraction(-1) if i <= half else Fraction(0) for i in positions]
        model = build_lp_general(n)
        assert model.objective == [w + r / 6 for w, r in zip(weight, r_a)] \
            + [w + r / 6 for w, r in zip(weight, r_b)]
        assert model.constant == Fraction(1, 4) / 6

    def test_general_zero_point_infeasible(self):
        model = build_lp_general(8)
        # first row reads a_1 + b_1 >= 1/n
        assert model.rhs[0] == Fraction(1, 8)

    def test_to_text_has_exact_rationals(self):
        text = build_lp_beta(4, Fraction(1, 100)).to_text()
        assert "1/4" in text      # the a_1 coefficient 1/(n-1) appears as 1/3
        assert "minimize:" in text
        assert ">=" in text


class TestSimplex:
    def test_single_variable(self):
        model = dense_model([Fraction(1)], [[Fraction(1)]], [Fraction(1)],
                            ["x"], ["c1"])
        sol = simplex_solve(model)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0, abs=SOLVE_TOL)

    def test_two_variable_hand_solution(self):
        model = dense_model([Fraction(1), Fraction(1)],
                            [[Fraction(1), Fraction(1)],
                             [Fraction(1), Fraction(0)]],
                            [Fraction(2), Fraction(1, 2)],
                            ["x", "y"], ["c1", "c2"])
        sol = simplex_solve(model)
        assert sol.objective == pytest.approx(2.0, abs=SOLVE_TOL)

    def test_unbounded(self):
        model = dense_model([Fraction(-1)], [[Fraction(1)]], [Fraction(1)],
                            ["x"], ["c1"])
        assert simplex_solve(model).status == "unbounded"

    def test_solution_invariants(self):
        sol = simplex_solve(build_lp_beta(8, Fraction(1, 100)))
        assert sol.status == "optimal"
        assert sol.max_violation <= FEAS_TOL
        assert (sol.x >= -1e-12).all()

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_matches_scipy_on_all_families(self, n):
        models = [build_lp_beta(n, Fraction(1, 100)),
                  build_lp_general(n),
                  build_lp_beta_lambda(n, Fraction(7, 8), 0)]
        for model in models:
            ours = simplex_solve(model)
            assert ours.objective == pytest.approx(scipy_optimum(model),
                                                   abs=SOLVE_TOL)


def lambda_grid(n):
    for lam in (Fraction(13, 16), Fraction(7, 8)):
        if (lam * n).denominator == 1:
            yield lam


class TestClosedFormBetaLambda:
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_simplex_equals_closed_form(self, n):
        for lam in lambda_grid(n):
            for beta in (0, Fraction(1, 100), Fraction(2, 100)):
                cf = closed_form_beta_lambda(n, lam, beta)
                sol = simplex_solve(build_lp_beta_lambda(n, lam, beta))
                assert sol.objective == pytest.approx(cf.exact, abs=SOLVE_TOL)

    def test_n16_value_against_independent_recursion(self):
        # tight position rows give w_i = 1/n - sum_{j<i} w_j/(n-j); check
        # that this recursion reproduces (n-i)/((n-1)n) and that the closed
        # form equals recursion head + constant tail
        n, lam = 16, Fraction(13, 16)
        lam_n = int(lam * n)
        w = []
        for i in range(1, lam_n + 1):
            wi = Fraction(1, n) - sum(w[j - 1] / (n - j)
                                      for j in range(1, i))
            assert wi == Fraction(n - i, (n - 1) * n)
            w.append(wi)
        tail_each = sum(Fraction(j, (n - 1) * n)
                        for j in range(1, n // 2 + 1)) / (n // 2)
        total = sum(w) + (n - lam_n) * tail_each
        cf = closed_form_beta_lambda(n, lam, 0)
        assert cf.exact == pytest.approx(float(total), abs=1e-15)
        assert cf.exact == pytest.approx(0.54375, abs=1e-12)

    def test_exact_is_the_sum_it_replaces(self, monkeypatch):
        """The position rows' sum, sum_{i<=lam n}(n-i)/((n-1)n), is taken in
        closed form; ``exact`` before its conversion to float is the
        Fraction the term-by-term sum gives, on the lambda grid at n = 8..1024
        and beta = 0 and 1/100."""
        converted = []
        monkeypatch.setattr(lp_module, "float", lambda v: converted.append(v)
                            or float(v), raising=False)
        checked = 0
        for n in range(8, 1025, 4):
            for lam in lambda_grid(n):
                lam_n = int(lam * n)
                head = sum(Fraction(n - i, (n - 1) * n)
                           for i in range(1, lam_n + 1))
                for beta in (Fraction(0), Fraction(1, 100)):
                    converted.clear()
                    bound = closed_form_beta_lambda(n, lam, beta)
                    *_, exact, asymptotic = converted
                    assert (float(exact), float(asymptotic)) == \
                        (bound.exact, bound.asymptotic)
                    assert exact == max(head + (1 - lam) * n * Fraction(
                        n // 2 + 1, 2 * (n - 1) * n) - beta, 0), (n, lam)
                    checked += 1
        assert checked == 2 * (len(range(16, 1025, 16))
                               + len(range(8, 1025, 8)))

    @pytest.mark.parametrize("k, gap", [(49, 8.198e-4), (50, 2.320e-4),
                                        (51, 0.0)])
    def test_overstates_the_lp_below_three_minus_sqrt2_over_2(self, k, gap):
        """Pinned finding: above the threshold 9 - sqrt(68) ~ 0.7538 the
        closed form is still above the LP optimum until lambda reaches
        (3 - sqrt 2)/2 ~ 0.7929, where the structure certifies.  The
        simplex and HiGHS agree on the optimum."""
        lam = Fraction(k, 64)
        model = build_lp_beta_lambda(64, lam, 0)
        opt = simplex_solve(model).objective
        assert abs(opt - scipy_optimum(model)) <= SOLVE_TOL
        assert closed_form_beta_lambda(64, lam, 0).exact - opt == \
            pytest.approx(gap, abs=1e-6)

    def test_understates_the_lp_when_beta_exceeds_the_tail_gain(self):
        """The structured point spends at most (n - lam n) T = 9/160 here;
        the closed form subtracts all of beta = 1/10."""
        model = build_lp_beta_lambda(16, Fraction(13, 16), Fraction(1, 10))
        assert solve(model).objective == pytest.approx(0.4875, abs=1e-15)
        assert simplex_solve(model).objective == pytest.approx(0.4875,
                                                               abs=1e-12)
        assert closed_form_beta_lambda(16, Fraction(13, 16),
                                       Fraction(1, 10)).exact == \
            pytest.approx(0.44375, abs=1e-15)

    def test_overstates_the_lp_just_above_the_threshold_at_n1024(self):
        """lambda = 772/1024 ~ 0.7539, the first above the threshold: the
        closed form is 1.1e-3 above the certified optimum, which HiGHS
        confirms."""
        lam = Fraction(772, 1024)
        model = build_lp_beta_lambda(1024, lam, 0)
        sol = solve(model)
        assert sol.solver == "structure"
        assert abs(sol.objective - scipy_optimum(model)) <= SOLVE_TOL
        assert closed_form_beta_lambda(1024, lam, 0).exact - sol.objective \
            == pytest.approx(1.0997e-3, abs=1e-6)

    def test_overstates_the_lp_until_the_pair_stops_clipping_at_n1024(self):
        """Sampled from the certified optima at n=1024, beta = 0: from the
        first lambda n above the threshold (772) to 811 the closed form is
        above the LP; from 812 on, where the pair clips no row, it is the
        LP optimum."""
        def overstatement(lam_n):
            lam = Fraction(lam_n, 1024)
            sol = solve_beta_lambda(build_lp_beta_lambda(1024, lam, 0))
            return closed_form_beta_lambda(1024, lam, 0).exact - sol.objective

        for lam_n in [*range(772, 811, 6), 811]:
            assert overstatement(lam_n) > 0, lam_n
        for lam_n in [*range(812, 1024, 24), 1024]:
            assert overstatement(lam_n) <= 1e-12, lam_n

    def test_asymptotic_at_threshold_lambda(self):
        cf = closed_form_beta_lambda(1000, Fraction(754, 1000), 0)
        assert cf.asymptotic == pytest.approx(0.53124, abs=5e-5)
        assert cf.asymptotic >= 0.5312

    def test_exact_dominates_asymptotic(self):
        for n in (8, 16, 32, 64):
            for lam in lambda_grid(n):
                for beta in (0, Fraction(1, 100)):
                    cf = closed_form_beta_lambda(n, lam, beta)
                    assert cf.exact >= cf.asymptotic - 1e-12

    def test_refuses_lambda_at_or_below_threshold(self):
        assert 0.75 < LAMBDA_THRESHOLD < 0.76
        with pytest.raises(ValueError):
            closed_form_beta_lambda(8, Fraction(3, 4), 0)

    @pytest.mark.parametrize("n,lam,message", [
        (16, 2, r"lambda must be at most 1, got 2"),
        (16, Fraction(17, 16), r"lambda must be at most 1, got 17/16"),
        (8, Fraction(99, 100),
         r"lambda\*n must be an integer, got 99/100\*8 = 198/25")])
    def test_lambda_rule_shared_with_the_builder(self, n, lam, message):
        """Above 1 the closed form read 0.0 / -0.25 (lambda = 2) and
        0.477 / 0.482 (17/16) at n=16, which the builder refuses."""
        for check in (closed_form_beta_lambda, build_lp_beta_lambda):
            with pytest.raises(ValueError, match=message):
                check(n, lam, 0)

    def test_clamped_at_zero_for_large_beta(self):
        cf = closed_form_beta_lambda(8, Fraction(7, 8), 1)
        assert cf.exact == 0.0

    def test_paper_optimal_point_is_feasible_and_optimal(self):
        # b = 0, w_i = a_i = (n-i)/((n-1)n) up to lambda n, the constant
        # tail beyond, and the slack budget spread evenly over the tail
        for n, lam, beta in [(8, Fraction(7, 8), 0),
                             (16, Fraction(13, 16), Fraction(1, 100))]:
            lam_n = int(lam * n)
            half = n // 2
            model = build_lp_beta_lambda(n, lam, beta)
            tail_gain = sum(Fraction(j, (n - 1) * n)
                            for j in range(1, half + 1)) / half
            g_each = _to_fraction(beta) / (n - lam_n)
            x = {}
            for i in range(1, lam_n + 1):
                x[f"w_{i}"] = x[f"a_{i}"] = Fraction(n - i, (n - 1) * n)
            for i in range(lam_n + 1, n + 1):
                x[f"w_{i}"] = x[f"a_{i}"] = tail_gain - g_each
                x[f"g_{i}"] = g_each
            vec = np.array([float(x.get(name, 0)) for name in model.var_names])
            a_mat = np.array([[float(c) for c in row] for row in model.rows])
            rhs = np.array([float(v) for v in model.rhs])
            assert (a_mat @ vec >= rhs - FEAS_TOL).all()
            obj = float(np.dot([float(c) for c in model.objective], vec))
            sol = simplex_solve(model)
            assert obj == pytest.approx(sol.objective, abs=FEAS_TOL)


class TestClosedFormGeneral:
    def test_n8_value_and_rederivation(self):
        val = closed_form_general(8)
        assert val == pytest.approx(177 / 336, abs=1e-15)
        # independent rederivation: evaluate the built objective at
        # a_i = (n-i)/((n-1)n), b = 0 and add the constant
        n = 8
        model = build_lp_general(n)
        point = {f"a_{i}": Fraction(n - i, (n - 1) * n)
                 for i in range(1, 3 * n // 4 + 1)}
        obj = sum(c * point.get(name, Fraction(0))
                  for c, name in zip(model.objective, model.var_names))
        assert float(obj + model.constant) == pytest.approx(val, abs=1e-15)

    def test_that_point_is_feasible(self):
        n = 8
        model = build_lp_general(n)
        point = np.zeros(model.num_vars)
        for i in range(1, 3 * n // 4 + 1):
            point[i - 1] = float(Fraction(n - i, (n - 1) * n))
        a_mat = np.array([[float(c) for c in row] for row in model.rows])
        rhs = np.array([float(v) for v in model.rhs])
        assert (a_mat @ point >= rhs - FEAS_TOL).all()

    def test_n400_near_limit(self):
        assert abs(closed_form_general(400) - 97 / 192) < 5e-4

    def test_limit_constant(self):
        assert GENERAL_LIMIT == Fraction(97, 192)
        assert float(GENERAL_LIMIT) == pytest.approx(0.505208, abs=1e-6)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            closed_form_general(4)


class TestMonotonicityAndOrdering:
    def test_beta_optimum_non_increasing_in_beta(self):
        vals = [simplex_solve(build_lp_beta(8, b)).objective
                for b in (0, Fraction(1, 100), Fraction(2, 100),
                          Fraction(5, 100))]
        for lo, hi in zip(vals[1:], vals):
            assert lo <= hi + FEAS_TOL

    def test_relaxation_ordering(self):
        for n in (8, 16):
            for beta in (0, Fraction(1, 100)):
                full = simplex_solve(build_lp_beta(n, beta)).objective
                for lam in lambda_grid(n):
                    rel = simplex_solve(
                        build_lp_beta_lambda(n, lam, beta)).objective
                    assert rel <= full + FEAS_TOL


class TestCombinedBound:
    def test_value(self):
        assert abs(combined_secondorder_bound() - 0.5104) <= 1e-12

    def test_crossing_beta(self):
        beta = COMBINED_BETA_STAR
        assert 0.5 + beta / 2 == pytest.approx(0.5312 - beta, abs=1e-12)
        assert beta == pytest.approx(2 * 0.0312 / 3, abs=1e-12)

    def test_min_curve_at_zero_beta(self):
        assert min(0.5 + 0 / 2, 0.5312 - 0) == 0.5


# ---------------------------------------------------------------------------
# Builders against the references
# ---------------------------------------------------------------------------

BUILDER_NS = range(4, 65, 4)
BUILDER_BETAS = (Fraction(0), Fraction(1, 100), Fraction(1, 3))
BUILDER_LAMBDAS = (Fraction(1, 2), Fraction(3, 4), Fraction(13, 16),
                   Fraction(7, 8), Fraction(1))


def assert_same_model(model, ref):
    """Same exact data and listing, a matrix bit-equal to the element-wise
    conversion of the reference's rows, and the same solution."""
    assert model.rows == ref.rows
    assert model.objective == ref.objective
    assert model.rhs == ref.rhs
    assert (model.var_names, model.row_names, model.metadata, model.constant) \
        == (ref.var_names, ref.row_names, ref.metadata, ref.constant)
    assert model.to_text() == ref.to_text()
    assert_bit_equal(_float_matrix(model), elementwise_floats(ref.rows))
    ours, theirs = solve(model), solve(ref)
    assert ours.to_dict() == theirs.to_dict()
    assert (ours.structure, ours.exact) == (theirs.structure, theirs.exact)


class TestBuildersMatchReference:
    @pytest.mark.parametrize("n", BUILDER_NS)
    def test_beta(self, n):
        for beta in BUILDER_BETAS:
            ref = reference_trace_lp(n, beta, pos_hi=n, sh_lo=n // 2,
                                     metadata={"family": "beta", "n": n,
                                               "beta": beta})
            assert_same_model(build_lp_beta(n, beta), ref)

    @pytest.mark.parametrize("n", BUILDER_NS)
    def test_beta_lambda(self, n):
        for lam in BUILDER_LAMBDAS:
            if (lam * n).denominator != 1:
                continue
            lam_n = int(lam * n)
            for beta in BUILDER_BETAS:
                ref = reference_trace_lp(n, beta, pos_hi=lam_n, sh_lo=lam_n,
                                         metadata={"family": "beta_lambda",
                                                   "n": n, "lambda": lam,
                                                   "beta": beta})
                assert_same_model(build_lp_beta_lambda(n, lam, beta), ref)

    @pytest.mark.parametrize("n", BUILDER_NS)
    def test_general(self, n):
        ref = reference_general_lp(n)
        assert_same_model(build_lp_general(n), ref)
        assert solve(ref).solver == "structure"

    @pytest.mark.parametrize("n", BUILDER_NS)
    def test_check_model_agrees_with_every_builder(self, n):
        models = [("general", build_lp_general(n)),
                  ("beta", build_lp_beta(n, 0))]
        models += [("beta_lambda", build_lp_beta_lambda(n, lam, 0))
                   for lam in BUILDER_LAMBDAS if (lam * n).denominator == 1]
        for family, model in models:
            assert _check_model(model, family) == n

    def test_negative_beta_rejected(self):
        calls = (lambda: build_lp_beta(8, -1),
                 lambda: build_lp_beta_lambda(16, Fraction(13, 16),
                                              Fraction(-1, 100)),
                 lambda: closed_form_beta_lambda(16, Fraction(13, 16), -0.01))
        for call in calls:
            with pytest.raises(ValueError, match="beta must be non-negative"):
                call()


# ---------------------------------------------------------------------------
# The simplex kernel against the reference
# ---------------------------------------------------------------------------

def random_lp(seed: int) -> LpModel:
    """Up to 7 rows and 7 variables with integer data in [-3, 3] and many
    zeros, so degenerate vertices are common; costs lie in [-1, 3].  About
    40% come out optimal, 40% infeasible and 20% unbounded."""
    rng = np.random.default_rng(seed)
    m, nv = (int(v) for v in rng.integers(1, 8, size=2))

    def ints(size, p_zero, low=-3):
        values = rng.integers(low, 4, size=size)
        return [Fraction(int(v)) for v in
                np.where(rng.random(size) < p_zero, 0, values)]

    rows = [ints(nv, 0.4) for _ in range(m)]
    return dense_model(ints(nv, 0.3, low=-1), rows, ints(m, 0.4),
                       [f"x{j}" for j in range(nv)],
                       [f"r{i}" for i in range(m)])


def beale_lp() -> LpModel:
    """Beale's example: largest-coefficient pricing with lowest-index ties
    cycles on it through degenerate pivots.  The optimum is -5/4."""
    f = Fraction
    return dense_model([f(-3, 4), f(20), f(-1, 2), f(6)],
                       [[f(-1, 4), f(8), f(1), f(-9)],
                        [f(-1, 2), f(12), f(1, 2), f(-3)],
                        [f(0), f(0), f(-1), f(0)]],
                       [f(0), f(0), f(-1)],
                       ["x4", "x5", "x6", "x7"], ["r1", "r2", "r3"])


class TestSimplexKernel:
    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
    def test_families_match_reference(self, n):
        models = [build_lp_beta(n, Fraction(1, 100)), build_lp_general(n)]
        models += [build_lp_beta_lambda(n, lam, beta)
                   for lam in (Fraction(3, 4), Fraction(7, 8))
                   if (lam * n).denominator == 1
                   for beta in (0, Fraction(1, 100))]
        for model in models:
            ours, ref = simplex_solve(model), reference_simplex(model)
            assert ours.status == ref.status == "optimal"
            assert abs(ours.objective - ref.objective) <= KERNEL_TOL
            assert ours.max_violation <= FEAS_TOL

    def test_random_lps_match_reference(self):
        statuses = Counter()
        for seed in range(500):
            model = random_lp(seed)
            ours, ref = simplex_solve(model), reference_simplex(model)
            assert ours.status == ref.status, seed
            if ours.status == "optimal":
                assert abs(ours.objective - ref.objective) <= KERNEL_TOL, seed
                assert ours.max_violation <= FEAS_TOL, seed
                assert (ours.x >= -FEAS_TOL).all(), seed
            statuses[ours.status] += 1
        assert min(statuses[s] for s in
                   ("optimal", "infeasible", "unbounded")) >= 50, statuses

    def test_ratio_test_ties_go_to_lowest_basis_index(self):
        # entering column 0: rows 0 and 1 tie at ratio 1/2, row 2 has 1
        tab = np.array([[2.0, 1.0], [4.0, 2.0], [1.0, 1.0], [-1.0, 0.0]])
        assert _leaving_row(tab, np.array([7, 3, 5]), 0) == 1
        assert _leaving_row(tab, np.array([3, 7, 5]), 0) == 0
        tab[:3, 0] = -1.0
        assert _leaving_row(tab, np.array([3, 7, 5]), 0) == -1

    def test_degenerate_cycle_falls_back_to_bland(self):
        sol = simplex_solve(beale_lp())
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-1.25, abs=KERNEL_TOL)
        # the largest-coefficient rule cycled until the fallback took over
        assert sol.iterations > DEGENERATE_LIMIT
        assert reference_simplex(beale_lp()).objective == \
            pytest.approx(-1.25, abs=KERNEL_TOL)

    def test_non_finite_fields_serialise_as_null(self):
        infeasible = dense_model([Fraction(1)],
                                 [[Fraction(1)], [Fraction(-1)]],
                                 [Fraction(1), Fraction(0)], ["x"],
                                 ["lo", "hi"])
        unbounded = dense_model([Fraction(-1)], [[Fraction(1)]],
                                [Fraction(1)], ["x"], ["c1"])
        for model, status in ((infeasible, "infeasible"),
                              (unbounded, "unbounded")):
            fields = simplex_solve(model).to_dict()
            assert fields["status"] == status
            assert fields["objective"] is None
            assert fields["max_violation"] is None
            json.dumps(fields, allow_nan=False)


# ---------------------------------------------------------------------------
# The structural solve of the general program
# ---------------------------------------------------------------------------

def general_8_with_row_4(coeffs):
    """``build_lp_general(8)`` with row 4's coefficients on a_1..a_3,
    1/(8-j) as built, set to ``coeffs``."""
    model = build_lp_general(8)
    rows = model.segments
    return replace(model, segments=rows[:3] + [[(0, coeffs, 3)] + rows[3][1:]]
                   + rows[4:])


def cost_to_go(model):
    """k_1, ..., k_{m+1} of ``solve_general``'s backward recursion, whose
    integer pairs (numerator, denominator) are made Fractions."""
    return [Fraction(num, den)
            for num, den in lp_module._general_recursion(model)[1]]


def reference_general_recursion(model):
    """n, k_1..k_{m+1} and each row's first cheapest candidate, by the
    recursion in Fractions that ``lp._general_recursion`` runs on integers:
    k_i = min(c_b(i) + k_{i+1}, c_a(i) + k_{i+1}(1 - 1/(n-i)),
    c_a(i)(n-i))."""
    n = _check_model(model, "general")
    if any(c < 0 for c in model.objective):
        raise ValueError("solve_general needs non-negative costs")
    rows, cost = 3 * n // 4, model.objective
    k, choices = [Fraction(0)], []
    for i in range(rows, 0, -1):
        ca, cb, step = cost[i - 1], cost[rows + i - 1], n - i
        c = (cb + k[-1], ca + k[-1] * Fraction(step - 1, step), ca * step)
        choice = min(range(3), key=c.__getitem__)
        k.append(c[choice])
        choices.append(choice)
    return n, k[::-1], choices[::-1]


def reference_general_pair(model):
    """x, y and the structure of ``solve_general``, in Fractions: the
    forward pass from r_1 = 1/n over the reference recursion's choices, and
    y_i = Y_i - Y_{i+1} from the running minimum Y of its cost-to-go."""
    n, k, choices = reference_general_recursion(model)
    zero, r = Fraction(0), Fraction(1, n)
    a, b = [], []
    for i, choice in enumerate(choices, 1):
        step = n - i
        if choice == 0:
            a.append(zero)
            b.append(r)
            continue
        a.append(r if choice == 1 else step * r)
        b.append(zero)
        r = r * Fraction(step - 1, step) if choice == 1 else zero
    switch = next((i for i, v in enumerate(b, 1) if v > 0), None)
    floor = [*itertools.accumulate(k[:-1], min), Fraction(0)]
    y = [hi - lo for hi, lo in zip(floor, floor[1:])]
    return a + b, y, {"switch_point": switch}


def cost_to_go_dual(model):
    """y_i = Y_i - Y_{i+1}, with Y_i = min(k_1..k_i) the running minimum of
    the cost-to-go and Y_{m+1} = 0: the dual ``solve_general`` certifies
    with, written out afresh."""
    k = cost_to_go(model)
    floor = [min(k[:i + 1]) for i in range(len(k) - 1)] + [Fraction(0)]
    return [floor[i] - floor[i + 1] for i in range(len(k) - 1)]


def general_with_costs(n, costs):
    """``build_lp_general(n)`` with its objective set to ``costs``."""
    return replace(build_lp_general(n), objective=list(costs))


def random_costs(rng, n):
    """Non-negative rationals for the 3n/2 columns, about a fifth 0."""
    return [Fraction(0) if rng.random() < 0.2
            else Fraction(rng.randint(0, 30), rng.randint(1, 12))
            for _ in range(3 * n // 2)]


# a cost vector at n=4 whose cost-to-go k = (3/10, 3/2, 1, 0) rises from
# row 1 to row 2: a_1 costs 1/10, every other column 1
RISING_COSTS = [Fraction(1, 10)] + [Fraction(1)] * 5


GENERAL_NS = [8, 16, 32, 64, 128, 256]
# the first row whose b is positive at the optimum
SWITCH_POINTS = {8: 6, 16: 12, 32: 23, 64: 45, 128: 90, 256: 180}


class TestSolveGeneral:
    @pytest.mark.parametrize("n", GENERAL_NS)
    def test_matches_simplex(self, n):
        model = build_lp_general(n)
        exact, simplex = solve_general(model), simplex_solve(model)
        assert exact.status == "optimal"
        assert abs(exact.objective - simplex.objective) <= EXACT_TOL
        assert exact.max_violation == 0.0

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_matches_scipy(self, n):
        model = build_lp_general(n)
        assert abs(solve_general(model).objective - scipy_optimum(model)) \
            <= EXACT_TOL

    @pytest.mark.parametrize("n", GENERAL_NS)
    def test_exact_point_is_feasible_and_attains_cost_to_go(self, n):
        model = build_lp_general(n)
        sol = solve_general(model)
        assert all(v >= 0 for v in sol.exact)
        for row, rhs in zip(model.rows, model.rhs):
            assert sum(c * v for c, v in zip(row, sol.exact) if c) >= rhs
        value = sum(c * v for c, v in zip(model.objective, sol.exact)) \
            + model.constant
        assert value == cost_to_go(model)[0] / n + Fraction(1, 24)
        assert sol.objective == float(value)

    def test_switch_points(self):
        for n, t in SWITCH_POINTS.items():
            sol = solve_general(build_lp_general(n))
            assert sol.structure == {"switch_point": t}
            rows = 3 * n // 4
            a, b = sol.exact[:rows], sol.exact[rows:]
            # a takes the residual before t, b from t on
            assert all(v > 0 for v in a[:t - 1]) and not any(a[t - 1:])
            assert not any(b[:t - 1]) and all(v > 0 for v in b[t - 1:])

    @pytest.mark.parametrize("n", [8, 16, 32, 256, 1024])
    def test_unit_b_cost_above_half_reaches_closed_form(self, n):
        # with c_b = 1 instead of 5/6 on n/2 < i <= 3n/4, the optimum is the
        # all-a point that closed_form_general evaluates; build_lp_general
        # keeps 5/6 (see ROADMAP, Open item 2a)
        model = build_lp_general(n)
        rows = 3 * n // 4
        for i in range(n // 2 + 1, rows + 1):
            model.objective[rows + i - 1] = Fraction(1)
        sol = solve_general(model)
        assert sol.objective - closed_form_general(n) == 0.0
        # only the last row uses b: there c_a = c_b = 1, and ties go to b
        assert sol.structure == {"switch_point": rows}

    def test_refuses_other_families_and_negative_costs(self):
        with pytest.raises(ValueError, match="general"):
            solve_general(build_lp_beta(8, 0))
        model = build_lp_general(8)
        model.objective[0] = Fraction(-1)
        with pytest.raises(ValueError, match="non-negative"):
            solve_general(model)

    def test_refuses_an_added_row(self):
        model = build_lp_general(8)
        model = replace(model, segments=model.segments + [[(0, [1], 1)]],
                        rhs=model.rhs + [Fraction(1)],
                        row_names=model.row_names + ["extra"])
        with pytest.raises(ValueError, match="a general model at n=8 is "
                           "6 x 12, got 7 x 12"):
            solve_general(model)

    @pytest.mark.parametrize("value, optimum", [
        (Fraction(1, 2), 0.747024), (Fraction(0), 0.468006)])
    def test_edited_rhs_declines_to_the_simplex(self, value, optimum):
        """Row 3's rhs is no longer 1/n: the dual's objective b.y moves by
        (value - 1/8) y_3, with y_3 = 71/120, and the exact point's cost
        does not, so c.x - b.y reads -0.222 at 1/2 and 0.074 at 0."""
        model = build_lp_general(8)
        model = replace(model, rhs=model.rhs[:2] + [value] + model.rhs[3:])
        reason = solve_general(model)
        y_3 = cost_to_go_dual(model)[2]
        assert y_3 == Fraction(71, 120)
        assert reason == \
            f"duality gap {float((Fraction(1, 8) - value) * y_3):.3g}"
        served = solve(model)
        assert served.solver == (f"simplex, {served.iterations} pivots "
                                 f"(structure declined: {reason})")
        assert served.objective == pytest.approx(optimum, abs=1e-6)

    def test_tightened_row_declines_to_the_simplex(self):
        """Row 4's a_j coefficients 1/(8-j) become 1/16: the exact point
        falls short of the row, and the simplex's optimum is higher."""
        model = general_8_with_row_4([Fraction(1, 16)] * 3)
        reason = solve_general(model)
        assert reason == "primal residual 0.0335"
        assert solve(model).objective == pytest.approx(0.544550, abs=1e-6)

    def test_loosened_row_declines(self):
        """Row 4's a_j coefficients doubled: the point stays feasible at
        0.520833, but the simplex finds 0.482887.  The dual's column check
        sees it: a_1..a_3 read more than their costs, by up to 17/120."""
        model = general_8_with_row_4([Fraction(2, 8 - j) for j in (1, 2, 3)])
        assert simplex_solve(model).objective == pytest.approx(0.482887,
                                                              abs=1e-6)
        reason = solve_general(model)
        assert reason == "dual residual 0.142"
        served = solve(model)
        assert served.solver.endswith(f"(structure declined: {reason})")
        assert served.objective == pytest.approx(0.482887, abs=1e-6)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_any_changed_entry_declines_or_is_certified(self, n):
        """Every entry of every row, set to another value, makes the solve
        decline, or the pair still proves the edited model optimal, and
        then the served optimum is the simplex's; the same rows cut into
        other segments, one per entry or one dense row each, still solve
        exactly."""
        model = build_lp_general(n)
        rows = model.rows
        dense = replace(model, segments=[[(0, row, len(row))]
                                         for row in rows])
        single = replace(model, segments=[[(j, [c], 1) for j, c in
                                           enumerate(row)] for row in rows])
        for same in (dense, single):
            assert solve_general(same).exact == solve_general(model).exact
        declined = 0
        for r, row in enumerate(rows):
            for j, c in enumerate(row):
                for value in {c + 1, c / 2, -c, Fraction(0)} - {c}:
                    edited = row[:j] + [value] + row[j + 1:]
                    changed = replace(dense, segments=dense.segments[:r]
                                      + [[(0, edited, len(row))]]
                                      + dense.segments[r + 1:])
                    solution = solve_general(changed)
                    if isinstance(solution, str):
                        declined += 1
                        continue
                    assert solution.solver == "structure"
                    assert abs(solution.objective - simplex_solve(
                        changed).objective) <= EXACT_TOL, (r, j, value)
        assert declined

    def test_certificate_reads_the_entries_not_the_cut(self):
        """Integer and Fraction coefficients, a zero-length segment and an
        explicit zero still read as the built row.  A row that drops its
        b_i entry is still proved optimal, at the simplex's optimum; one
        that reads 2 at a_i is not, since the dual then reads more than
        a_3's cost."""
        model = build_lp_general(8)
        rows = model.segments
        # row 3 reads 1/7, 1/6 at a_1, a_2 and 1 at a_3 (column 2) and b_3
        # (column 8)
        inv, one = rows[-1][0][1], [1]
        same = [(0, inv, 1), (1, inv[1:], 1), (2, [1, 0], 2), (5, one, 0),
                (8, one, 1)]
        assert solve_general(replace(model, segments=rows[:2] + [same]
                                     + rows[3:])).status == "optimal"
        no_b = replace(model, segments=rows[:2] + [[(0, inv, 2), (2, one, 1)]]
                       + rows[3:])
        served = solve_general(no_b)
        assert served.solver == "structure"
        assert abs(served.objective - simplex_solve(no_b).objective) \
            <= EXACT_TOL
        two = replace(model, segments=rows[:2]
                      + [[(0, inv, 2), (2, [2], 1), (8, one, 1)]] + rows[3:])
        assert solve_general(two) == "dual residual 0.592"

    @pytest.mark.parametrize("n", range(4, 33, 4))
    def test_random_costs_are_certified(self, n):
        """On seeded random non-negative costs the recursion's point and
        the running-minimum dual prove each other optimal, and the optimum
        is the simplex's.  The plain differences k_i - k_{i+1} would have
        a negative entry on some of them."""
        rng = random.Random(n)
        rising = 0
        for _ in range(50):
            model = general_with_costs(n, random_costs(rng, n))
            solution = solve_general(model)
            assert solution.solver == "structure"
            assert abs(solution.objective - simplex_solve(model).objective) \
                <= EXACT_TOL
            k = cost_to_go(model)
            rising += any(hi < lo for hi, lo in zip(k, k[1:]))
        assert rising

    def test_rising_cost_to_go_is_certified(self):
        """Where k rises, the running minimum is the dual and the plain
        differences are not: y_1 = k_1 - k_2 = -6/5 < 0."""
        model = general_with_costs(4, RISING_COSTS)
        k = cost_to_go(model)
        assert k == [Fraction(3, 10), Fraction(3, 2), Fraction(1), 0]
        assert k[0] - k[1] == Fraction(-6, 5)
        assert cost_to_go_dual(model) == [0, 0, Fraction(3, 10)]
        solution = solve_general(model)
        assert solution.solver == "structure"
        assert solution.objective == float(Fraction(3, 40) + Fraction(1, 24))
        assert abs(solution.objective - simplex_solve(model).objective) \
            <= EXACT_TOL

    def test_n1024_is_certified(self):
        assert solve(build_lp_general(1024)).solver == "structure"

    @pytest.mark.parametrize("n", GENERAL_NS)
    def test_cost_to_go_differences_are_a_dual_certificate(self, n):
        """For the builder's costs k does not increase, so the running
        minimum is k itself and the dual is the plain differences of the
        cost-to-go: a dual point that meets the exact point's cost and no
        column cost exceeds."""
        model = build_lp_general(n)
        k = cost_to_go(model)
        assert all(hi >= lo for hi, lo in zip(k, k[1:]))
        y, x = cost_to_go_dual(model), solve_general(model).exact
        assert y == [hi - lo for hi, lo in zip(k, k[1:])]
        assert all(v >= 0 for v in y)
        assert sum(b * v for b, v in zip(model.rhs, y)) == \
            sum(c * v for c, v in zip(model.objective, x))
        assert on_scaled(_column_excess, model, y) == 0

    def test_cost_to_go_dual_sees_the_loosened_row(self):
        """Row 4's a_j coefficients doubled: the exact point stays
        feasible, but the cost-to-go dual exceeds a column cost, which is
        the reason ``test_loosened_row_declines`` pins."""
        model = general_8_with_row_4([Fraction(2, 8 - j) for j in (1, 2, 3)])
        assert on_scaled(_column_excess, model, cost_to_go_dual(model)) == \
            Fraction(17, 120)


def tied_costs(rng, n):
    """Non-negative costs built from the last row up so that on each row
    two or three of the recursion's candidates c_b + k, c_a + k (s-1)/s and
    c_a s (s = n - i, k = k_{i+1}) are equal, and the sets of candidates
    that attain each row's minimum, last row first.  c_b + k and c_a s
    cannot tie at the minimum without the middle candidate: that needs
    c_a < k/s, and then c_b < 0."""
    rows = 3 * n // 4
    ca, cb, ties = [None] * rows, [None] * rows, []
    k = Fraction(0)
    for i in range(rows, 0, -1):
        s, spare = n - i, Fraction(rng.randint(0, 6), rng.randint(1, 4))
        pattern = rng.choice(("01", "12", "012"))
        if pattern == "01":       # c_b + k = c_a + k (s-1)/s = spare + k
            a, b = k / s + spare, spare
        elif pattern == "12":     # c_a + k (s-1)/s = c_a s = k
            a, b = k / s, spare
        else:                     # all three k
            a, b = k / s, Fraction(0)
        ca[i - 1], cb[i - 1] = a, b
        c = (b + k, a + k * Fraction(s - 1, s), a * s)
        k = min(c)
        ties.append({j for j in range(3) if c[j] == k})
    return ca + cb, ties


@pytest.fixture
def certified_pairs(monkeypatch):
    """Every (x, y, structure) that ``lp._certified_solution`` receives."""
    pairs = []
    certify_pair = lp_module._certified_solution
    monkeypatch.setattr(lp_module, "_certified_solution",
                        lambda model, x, y, structure:
                        pairs.append((x, y, structure))
                        or certify_pair(model, x, y, structure))
    return pairs


def assert_general_is_the_reference(model, pairs) -> Union[LpSolution, str]:
    """``solve_general`` on ``model`` against the Fraction reference: the
    same k (in lowest terms), choices, x, y and structure, and the same
    served solution, or the same reason to decline; ``pairs`` is the
    ``certified_pairs`` fixture."""
    _, k, choices = lp_module._general_recursion(model)
    _, ref_k, ref_choices = reference_general_recursion(model)
    assert k == [(v.numerator, v.denominator) for v in ref_k]
    assert choices == ref_choices
    x, y, structure = reference_general_pair(model)
    pairs.clear()
    ours = solve_general(model)
    [((xs, x_scale), (ys, y_scale), our_structure)] = pairs
    assert [Fraction(v, x_scale) for v in xs] == x
    assert [Fraction(v, y_scale) for v in ys] == y
    assert our_structure == structure
    ref = certify(model, x, y, structure)
    if isinstance(ref, str):
        assert ours == ref
    else:
        assert ours.exact == ref.exact == x
        assert (ours.objective, ours.structure, ours.solver) == \
            (ref.objective, ref.structure, ref.solver)
        assert_bit_equal(ours.x, np.array([float(v) for v in x]))
    return ours


class TestGeneralAgainstTheFractionReference:
    """``solve_general`` runs its recursion, forward pass and dual on
    Python integers; the Fraction recursion it replaced is the reference
    it is held to exactly."""

    @pytest.mark.parametrize("n", range(4, 65, 4))
    def test_random_costs(self, n, certified_pairs):
        rng = random.Random(1000 + n)
        for _ in range(200):
            model = general_with_costs(n, random_costs(rng, n))
            assert_general_is_the_reference(model, certified_pairs)

    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
    def test_tied_candidates_go_to_the_first(self, n, certified_pairs):
        rng = random.Random(n)
        seen = set()
        for _ in range(40):
            costs, ties = tied_costs(rng, n)
            model = general_with_costs(n, costs)
            assert_general_is_the_reference(model, certified_pairs)
            _, _, choices = lp_module._general_recursion(model)
            assert choices == [min(t) for t in ties[::-1]]
            seen.update(frozenset(t) for t in ties)
        assert seen == {frozenset({0, 1}), frozenset({1, 2}),
                        frozenset({0, 1, 2})}

    def test_rising_zero_and_builder_costs(self, certified_pairs):
        rising = assert_general_is_the_reference(
            general_with_costs(4, RISING_COSTS), certified_pairs)
        assert rising.solver == "structure"
        for n in (4, 8, 64):
            zero = assert_general_is_the_reference(
                general_with_costs(n, [Fraction(0)] * (3 * n // 2)),
                certified_pairs)
            assert (zero.objective, zero.structure) == (1 / 24,
                                                        {"switch_point": 1})
        for n in list(range(4, 257, 4)) + [512, 1024]:
            built = assert_general_is_the_reference(build_lp_general(n),
                                                    certified_pairs)
            assert built.solver == "structure"

    def test_declines(self, certified_pairs):
        """The edited rhs, the tightened and the loosened row decline with
        the reference's reasons, and so does every edited entry at n=8
        that declines."""
        model = build_lp_general(8)
        edited = [replace(model, rhs=model.rhs[:2] + [v] + model.rhs[3:])
                  for v in (Fraction(1, 2), Fraction(0))]
        edited += [general_8_with_row_4([Fraction(1, 16)] * 3),
                   general_8_with_row_4([Fraction(2, 8 - j)
                                         for j in (1, 2, 3)])]
        reasons = [assert_general_is_the_reference(m, certified_pairs)
                   for m in edited]
        assert reasons == ["duality gap -0.222", "duality gap 0.074",
                           "primal residual 0.0335", "dual residual 0.142"]
        declined = 0
        for r, row in enumerate(model.rows):
            for j, c in enumerate(row):
                for value in {c + 1, c / 2, Fraction(0)} - {c}:
                    segments = [*model.segments]
                    segments[r] = [(0, row[:j] + [value] + row[j + 1:],
                                    len(row))]
                    declined += isinstance(assert_general_is_the_reference(
                        replace(model, segments=segments), certified_pairs),
                        str)
        assert declined

    def test_no_fraction_per_row(self, monkeypatch):
        """Building ``build_lp_general(1024)`` makes one Fraction per
        coefficient it stores, and solving it at most one per entry it
        returns and a few for the certificate's sums: the recursion, the
        forward pass and the dual make none."""
        made = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(cls)
            return new(cls, *args, **kwargs)
        monkeypatch.setattr(Fraction, "__new__", counting)
        model = build_lp_general(1024)
        built = len(made)
        solution = solve_general(model)
        solved = len(made) - built
        monkeypatch.undo()
        stored = {id(v) for v in [*model.objective, *model.rhs,
                                  model.constant]}
        stored |= {id(c) for row in model.segments for _, seq, k in row
                   for c in seq[:k]}
        assert built <= len(stored), (built, len(stored))
        assert solved <= len(solution.exact) + 16, solved


# ---------------------------------------------------------------------------
# The structural beta-lambda solve
# ---------------------------------------------------------------------------

STRUCTURE_NS = [8, 16, 32, 64, 128, 256]
STRUCTURE_LAMBDAS = (Fraction(1, 2), Fraction(5, 8), Fraction(3, 4),
                     Fraction(13, 16), Fraction(7, 8), Fraction(15, 16),
                     Fraction(1))
STRUCTURE_BETAS = (Fraction(0), Fraction(1, 100), Fraction(1, 20),
                   Fraction(1, 10), Fraction(1))
# the pair clips rows as ``solve_beta``'s does, and the certificate holds
# on the grid except where beta lies between the clipped and the unclipped
# tail's capacity: lambda at most 5/8, beta at 1/20 or 1/10
DECLINES_UP_TO = Fraction(5, 8)
DECLINING_BETAS = (Fraction(1, 20), Fraction(1, 10))


def structure_grid(n):
    for lam in STRUCTURE_LAMBDAS:
        if (lam * n).denominator == 1:
            for beta in STRUCTURE_BETAS:
                yield lam, beta, build_lp_beta_lambda(n, lam, beta)


def sparse_rows(model):
    return [[(j, c) for j, c in enumerate(row) if c] for row in model.rows]


def exact_certificate_holds(model, x, y) -> bool:
    """Ax >= b, A^T y <= c, x, y >= 0 and c.x = b.y, all in Fractions over
    the model's rational rows."""
    rows = sparse_rows(model)
    if any(v < 0 for v in x) or any(v < 0 for v in y):
        return False
    if any(sum(c * x[j] for j, c in row) < rhs
           for row, rhs in zip(rows, model.rhs)):
        return False
    aty = [Fraction(0)] * model.num_vars
    for row, yr in zip(rows, y):
        if yr:
            for j, c in row:
                aty[j] += c * yr
    if any(v > c for v, c in zip(aty, model.objective)):
        return False
    return sum(c * v for c, v in zip(model.objective, x)) == \
        sum(b * v for b, v in zip(model.rhs, y))


def edit_a1_in_position_5(model):
    """Row position_5 of an n=16 model reads a_1 (column 16) as 2 instead
    of 1/15, through an edited copy of its shared sequence."""
    row = model.segments[model.row_names.index("position_5")]
    col, coeffs, k = row[1]
    assert col == 16 and coeffs[0] == Fraction(1, 15)
    row[1] = (col, [Fraction(2)] + list(coeffs[1:]), k)


# (vector, entry, check) of a 1/10^6 cut from one entry of an n=16 pair
# at beta 0: a_1 leaves the later position rows short, and the last
# second-half dual leaves the a columns above their costs
TAMPERED_AFTER_EDIT = [("x", "a_1", "primal residual"),
                       ("y", "second_half_16", "dual residual")]


def tampered_pair(model, pair, vector, name, sign=-1):
    """``pair``, with x and y as integers over one scale each, with entry
    ``name`` of x or y moved by 1/10^6, down unless ``sign`` is 1: the
    moved vector is put over the lcm of its scale and 10^6."""
    x, y, structure = pair
    names = model.row_names if vector == "y" else model.var_names
    ints, scale = y if vector == "y" else x
    moved_scale = math.lcm(scale, 10 ** 6)
    moved = [v * (moved_scale // scale) for v in ints]
    moved[names.index(name)] += sign * (moved_scale // 10 ** 6)
    if vector == "y":
        return x, (moved, moved_scale), structure
    return (moved, moved_scale), y, structure


def fraction_pair(pair):
    """A structural pair with x and y as integers over one scale each, as
    (x, y, structure) with x and y Fractions."""
    (xs, x_scale), (ys, y_scale), structure = pair
    return ([Fraction(v, x_scale) for v in xs],
            [Fraction(v, y_scale) for v in ys], structure)


class TestSolveBetaLambda:
    @pytest.mark.parametrize("n", STRUCTURE_NS)
    def test_matches_simplex(self, n):
        """Every structural answer equals the simplex optimum; declines
        happen only at lambda <= 5/8 with beta at 1/20 or 1/10, where the
        budget binds on the unclipped tail but not on the clipped one."""
        for lam, beta, model in structure_grid(n):
            sol = solve_beta_lambda(model)
            if isinstance(sol, str):
                assert lam <= DECLINES_UP_TO and beta in DECLINING_BETAS, \
                    (lam, beta, sol)
                assert sol.startswith("duality gap ")
                continue
            ref = simplex_solve(model)
            assert abs(sol.objective - ref.objective) <= KERNEL_TOL, \
                (lam, beta)
            assert (sol.status, sol.iterations, sol.solver) == \
                ("optimal", 0, "structure")
            assert sol.max_violation == 0.0
            assert sol.structure["position_rows"] == lam * n

    def test_grid_is_mostly_certified(self):
        """At least 180 of the 200 grid cases are certified: 180 with the
        clipping, 137 when the pair clipped no row."""
        cases = [solve_beta_lambda(model) for n in STRUCTURE_NS
                 for _, _, model in structure_grid(n)]
        assert len(cases) == 200
        assert sum(not isinstance(sol, str) for sol in cases) >= 180

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_matches_highs(self, n):
        certified = 0
        for lam, beta, model in structure_grid(n):
            sol = solve_beta_lambda(model)
            if not isinstance(sol, str):
                assert abs(sol.objective - scipy_optimum(model)) <= SOLVE_TOL
                certified += 1
        assert certified >= 20

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_exact_certificate(self, n):
        certified = 0
        for lam, beta, model in structure_grid(n):
            sol = solve_beta_lambda(model)
            if isinstance(sol, str):
                continue
            x, y, structure = fraction_pair(_beta_lambda_pair(model))
            assert sol.exact == x
            assert sol.structure == structure
            assert exact_certificate_holds(model, x, y), (lam, beta)
            assert sol.objective == float(
                sum(c * v for c, v in zip(model.objective, x)))
            certified += 1
        assert certified >= 10

    # (vector, entry, direction) of a 1e-6 change, and the check that
    # rejects it
    TAMPERED = [("y", "position_1", 1),       # b.y moves: duality gap
                ("y", "step_split_1", 1),     # w_1's column: dual residual
                ("y", "slack_budget", 1),     # b.y moves: duality gap
                ("x", "w_1", -1),             # c.x moves: duality gap
                ("x", "a_1", -1),             # position rows: primal residual
                ("x", "g_16", -1)]            # second_half_16: primal residual

    @pytest.mark.parametrize("vector, name, sign", TAMPERED)
    def test_tampered_certificate_declines(self, monkeypatch, vector, name,
                                           sign):
        model = build_lp_beta_lambda(16, Fraction(13, 16), Fraction(1, 100))
        x, y, structure = tampered_pair(model, _beta_lambda_pair(model),
                                        vector, name, sign)
        monkeypatch.setattr(lp_module, "_beta_lambda_pair",
                            lambda model: (x, y, structure))
        reason = solve_beta_lambda(model)
        assert isinstance(reason, str)
        served = solve(model)
        assert served.solver == (f"simplex, {served.iterations} pivots "
                                 f"(structure declined: {reason})")
        assert served.objective == simplex_solve(model).objective

    def test_untampered_pair_certifies(self, monkeypatch):
        model = build_lp_beta_lambda(16, Fraction(13, 16), Fraction(1, 100))
        pair = _beta_lambda_pair(model)
        monkeypatch.setattr(lp_module, "_beta_lambda_pair",
                            lambda model: pair)
        assert solve(model).solver == "structure"

    def test_edited_model_declines(self, monkeypatch):
        """The certificate reads the model's own objective and segments, so
        a model that is not the program the structure describes declines,
        and so does a pair with one entry moved by 1/10^6."""
        model = build_lp_beta_lambda(16, Fraction(13, 16), 0)
        model.objective[0] = Fraction(2)
        assert solve_beta_lambda(model).startswith("duality gap")
        model = build_lp_beta_lambda(16, Fraction(13, 16), 0)
        edit_a1_in_position_5(model)
        assert solve_beta_lambda(model).startswith("dual residual")
        model = build_lp_beta_lambda(16, Fraction(13, 16), 0)
        for vector, name, check in TAMPERED_AFTER_EDIT:
            x, y, structure = tampered_pair(model, _beta_lambda_pair(model),
                                            vector, name)
            monkeypatch.setattr(lp_module, "_beta_lambda_pair",
                                lambda model: (x, y, structure))
            assert solve_beta_lambda(model).startswith(check), name

    def test_tamper_below_float_tolerance_declines(self, monkeypatch):
        """a_1 lowered by 1/10^6 at n=1024 falls short of every later
        position row by 1/(10^6 1023) ~ 9.8e-10, below the 1e-9 a float
        check would forgive; the exact check declines it."""
        model = build_lp_beta_lambda(1024, Fraction(13, 16), 0)
        x, y, structure = tampered_pair(model, _beta_lambda_pair(model), "x",
                                        "a_1")
        monkeypatch.setattr(lp_module, "_beta_lambda_pair",
                            lambda model: (x, y, structure))
        assert solve_beta_lambda(model) == "primal residual 9.78e-10"

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_three_quarters_at_zero_beta_declines(self, n):
        """Declined with a negative step-split dual while the pair clipped
        no row; with the clipping the structure serves it, and the optimum
        is the simplex's."""
        model = build_lp_beta_lambda(n, Fraction(3, 4), 0)
        served = solve(model)
        assert served.solver == "structure"
        assert served.structure == {"position_rows": 3 * n // 4,
                                    "budget_binding": True}
        assert abs(served.objective - simplex_solve(model).objective) <= \
            KERNEL_TOL

    def test_49_64_declines(self):
        """Declined on step_split_31 while the pair clipped no row; now
        rows 31 and 32 are clipped and the pair is certified."""
        model = build_lp_beta_lambda(64, Fraction(49, 64), 0)
        assert lp_module._beta_dual(64, 49, (0, 1), (15, 1))[2] == {31, 32}
        sol = solve_beta_lambda(model)
        assert sol.solver == "structure"
        assert abs(sol.objective - simplex_solve(model).objective) <= \
            KERNEL_TOL

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_certified_from_three_minus_sqrt2_over_2(self, n):
        """With the budget binding, the pair clips no row exactly when
        lambda >= (3 - sqrt 2)/2 ~ 0.7929 in the limit: at each n, the last
        lambda n that clips and the first that does not straddle it, and
        both are certified."""
        bound = (3 - math.sqrt(2)) / 2
        first = math.ceil(bound * n)
        for L, clips in ((first - 1, True), (first, False)):
            _, _, clipped = lp_module._beta_dual(n, L, (0, 1), (n - L, 1))
            assert bool(clipped) == clips, L
            sol = solve_beta_lambda(build_lp_beta_lambda(n, Fraction(L, n),
                                                         0))
            assert sol.solver == "structure"
            assert sol.structure == {"position_rows": L,
                                     "budget_binding": True}

    def test_n1024_pins(self):
        """lambda = 3/4, beta = 1/100 (sparse HiGHS read
        0.5201960050848041), and the relaxation's best lambda n at beta = 0
        in the window 790..798: 794, below the full beta program's
        0.5309505873027724 at this n."""
        model = build_lp_beta_lambda(1024, Fraction(3, 4), Fraction(1, 100))
        assert solve_beta_lambda(model).objective == 0.5201960050847987
        optima = {L: solve_beta_lambda(build_lp_beta_lambda(
            1024, Fraction(L, 1024), 0)).objective for L in range(790, 799)}
        best = max(optima, key=optima.get)
        assert (best, optima[best]) == (794, 0.5309503287715979)
        assert optima[best] < BETA_ASYMPTOTE[1024]

    def test_budget_binding_and_position_rows(self):
        # (n - L) T = 3 * 3/160 = 9/160 at n=16, lambda 13/16
        n, lam = 16, Fraction(13, 16)
        for beta, binding in [(0, True),
                              (Fraction(9, 160) - Fraction(1, 10 ** 9), True),
                              (Fraction(9, 160), False), (1, False)]:
            sol = solve_beta_lambda(build_lp_beta_lambda(n, lam, beta))
            assert sol.structure == {"position_rows": 13,
                                     "budget_binding": binding}
        # lambda = 1: no tail, the budget never binds
        sol = solve_beta_lambda(build_lp_beta_lambda(n, 1, 0))
        assert sol.structure == {"position_rows": 16,
                                 "budget_binding": False}

    def test_never_calls_the_closed_form(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("closed form called")
        monkeypatch.setattr(lp_module, "closed_form_beta_lambda", refuse)
        for lam, beta, model in structure_grid(16):
            solve(model)

    def test_refuses_other_families_and_shapes(self):
        for model in (build_lp_beta(8, 0), build_lp_general(8)):
            with pytest.raises(ValueError, match="beta_lambda"):
                solve_beta_lambda(model)
        model = build_lp_beta_lambda(8, Fraction(7, 8), 0)
        model.metadata["n"] = 16
        with pytest.raises(ValueError, match="at n=16 is 33 x 56"):
            solve_beta_lambda(model)


# ---------------------------------------------------------------------------
# The structural beta solve
# ---------------------------------------------------------------------------

BETA_NS = [8, 12, 16, 32, 64, 128]
BETA_BETAS = (Fraction(0), Fraction(1, 1000), Fraction(1, 100),
              Fraction(1, 50))
# above about 1/30 the budget exceeds what the tail can absorb
DECLINED_BETAS = (Fraction(1, 30), Fraction(1, 20), Fraction(1, 10),
                  Fraction(1))
# (n, L, theta, clipped rows) of the optimum, whatever beta
BETA_STRUCTURES = [(4, 3, "0", [2]), (8, 6, "0", [4]),
                   (32, 25, "249/337", [15, 16]),
                   (64, 50, "498/1409", [31, 32]),
                   (128, 99, "0", [62, 63, 64])]
# certified optima at beta = 0, past the sizes the simplex reaches quickly
BETA_ASYMPTOTE = {512: 0.5311905938569751, 1024: 0.5309505873027724,
                  2048: 0.5308307923246142}


def beta_grid(n, betas=BETA_BETAS):
    for beta in betas:
        yield beta, build_lp_beta(n, beta)


class TestSolveBeta:
    @pytest.mark.parametrize("n", BETA_NS)
    def test_matches_simplex(self, n):
        for beta, model in beta_grid(n):
            sol = solve_beta(model)
            assert not isinstance(sol, str), (beta, sol)
            ref = simplex_solve(model)
            assert abs(sol.objective - ref.objective) <= KERNEL_TOL, beta
            assert (sol.status, sol.iterations, sol.solver) == \
                ("optimal", 0, "structure")
            assert sol.max_violation == 0.0

    def test_matches_simplex_at_256(self):
        model = build_lp_beta(256, Fraction(1, 100))
        sol = solve_beta(model)
        assert abs(sol.objective - simplex_solve(model).objective) \
            <= KERNEL_TOL

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_matches_highs(self, n):
        for beta, model in beta_grid(n):
            assert abs(solve_beta(model).objective - scipy_optimum(model)) \
                <= SOLVE_TOL

    @pytest.mark.parametrize("n", [4, 8, 12, 16, 32, 64])
    def test_exact_certificate(self, n):
        for beta, model in beta_grid(n):
            sol = solve_beta(model)
            x, y, structure = fraction_pair(_beta_pair(model))
            assert sol.exact == x
            assert sol.structure == structure
            assert exact_certificate_holds(model, x, y), beta
            assert sol.objective == float(
                sum(c * v for c, v in zip(model.objective, x)))

    @pytest.mark.parametrize("n, L, theta, clipped", BETA_STRUCTURES)
    def test_structure(self, n, L, theta, clipped):
        """The dual's kink does not move with beta: s = L - theta, an
        integer or a fraction where the lowest clipped row's u is 0."""
        for beta, model in beta_grid(n, (Fraction(0), Fraction(1, 50))):
            assert solve_beta(model).structure == \
                {"L": L, "theta": theta, "clipped_rows": clipped}

    def test_optimum_is_the_beta_free_optimum_less_beta(self):
        """y_bud = 1 in every certified dual, so the optimum falls one for
        one with beta."""
        free = solve_beta(build_lp_beta(32, 0)).exact
        for beta, model in beta_grid(32):
            exact = solve_beta(model).exact
            assert sum(exact[:32]) == sum(free[:32]) - beta

    @pytest.mark.parametrize("n", sorted(BETA_ASYMPTOTE))
    def test_asymptote_pins(self, n):
        """The certified optimum keeps falling past n=256, towards about
        0.5307 (Richardson on n = 256-4096), below the abstract's 0.5312."""
        sol = solve_beta(build_lp_beta(n, 0))
        assert sol.solver == "structure"
        assert sol.objective == pytest.approx(BETA_ASYMPTOTE[n], abs=1e-12)
        assert sol.objective < 0.5312

    # (vector, entry, direction) of a 1e-6 change, and the check that
    # rejects it
    TAMPERED = [("y", "position_1", 1, "duality gap"),
                ("y", "step_split_1", 1, "dual residual"),
                ("y", "second_half_16", 1, "dual residual"),
                ("y", "slack_budget", 1, "duality gap"),
                ("x", "w_1", -1, "duality gap"),
                ("x", "a_1", -1, "primal residual"),
                ("x", "g_13", -1, "primal residual")]

    @pytest.mark.parametrize("vector, name, sign, check", TAMPERED)
    def test_tampered_certificate_declines(self, monkeypatch, vector, name,
                                           sign, check):
        model = build_lp_beta(16, Fraction(1, 100))
        x, y, structure = tampered_pair(model, _beta_pair(model), vector,
                                        name, sign)
        monkeypatch.setattr(lp_module, "_beta_pair",
                            lambda model: (x, y, structure))
        reason = solve_beta(model)
        assert reason.startswith(check)
        served = solve(model)
        assert served.solver == (f"simplex, {served.iterations} pivots "
                                 f"(structure declined: {reason})")
        assert served.objective == simplex_solve(model).objective

    def test_negative_primal_entry_declines(self, monkeypatch):
        """b_1, 0 in the pair, lowered by 1/10^6: x >= 0 is checked first."""
        model = build_lp_beta(16, Fraction(1, 100))
        x, y, structure = tampered_pair(model, _beta_pair(model), "x", "b_1")
        monkeypatch.setattr(lp_module, "_beta_pair",
                            lambda model: (x, y, structure))
        assert solve_beta(model) == "negative primal entry"
        served = solve(model)
        assert served.solver == (f"simplex, {served.iterations} pivots "
                                 "(structure declined: negative primal "
                                 "entry)")

    def test_untampered_pair_certifies(self):
        model = build_lp_beta(16, Fraction(1, 100))
        certified = _certified_solution(model, *_beta_pair(model))
        assert isinstance(certified, LpSolution)
        assert solve(model).solver == "structure"

    def test_edited_model_declines(self, monkeypatch):
        """The certificate reads the model's own objective and segments,
        and declines a pair with one entry moved by 1/10^6."""
        model = build_lp_beta(16, 0)
        model.objective[0] = Fraction(2)
        assert solve_beta(model).startswith("duality gap")
        model = build_lp_beta(16, 0)
        edit_a1_in_position_5(model)
        assert solve_beta(model).startswith("dual residual")
        model = build_lp_beta(16, 0)
        for vector, name, check in TAMPERED_AFTER_EDIT:
            x, y, structure = tampered_pair(model, _beta_pair(model), vector,
                                            name)
            monkeypatch.setattr(lp_module, "_beta_pair",
                                lambda model: (x, y, structure))
            assert solve_beta(model).startswith(check), name

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_budget_beyond_the_tail_declines(self, n):
        for beta, model in beta_grid(n, DECLINED_BETAS):
            reason = solve_beta(model)
            assert reason.startswith("budget exceeds the tail's capacity"), \
                beta
            served = solve(model)
            assert served.solver == (f"simplex, {served.iterations} pivots "
                                     f"(structure declined: {reason})")
            assert served.objective == simplex_solve(model).objective

    def test_n4_certifies_up_to_its_tail_capacity(self):
        """At n=4 the kink s = 3 is also where row 2 clips, so a_2 is free
        and is set to make r_3 = T; that tail absorbs beta up to 5/48."""
        for beta in (Fraction(1, 30), Fraction(1, 10), Fraction(5, 48)):
            model = build_lp_beta(4, beta)
            assert solve_beta(model).objective == pytest.approx(
                Fraction(5, 8) - beta, abs=1e-15)
        assert solve_beta(build_lp_beta(4, 1)) == \
            "budget exceeds the tail's capacity by 0.896"

    def test_refuses_other_families_and_shapes(self):
        for model in (build_lp_beta_lambda(8, Fraction(7, 8), 0),
                      build_lp_general(8)):
            with pytest.raises(ValueError, match="needs a build_lp_beta "):
                solve_beta(model)
        model = build_lp_beta(8, 0)
        model.metadata["n"] = 16
        with pytest.raises(ValueError, match="at n=16 is 41 x 56"):
            solve_beta(model)


class TestSolve:
    def test_dispatch_per_family(self):
        general = build_lp_general(32)
        served = solve(general)
        assert served.solver == "structure"
        assert served.objective == solve_general(general).objective
        beta = build_lp_beta(8, Fraction(1, 100))
        assert solve(beta).solver == "structure"
        beta = build_lp_beta(8, Fraction(1, 10))
        served, ref = solve(beta), simplex_solve(beta)
        assert served.solver.startswith(f"simplex, {ref.iterations} pivots "
                                        "(structure declined: budget")
        assert served.objective == ref.objective
        assert solve(build_lp_beta_lambda(16, Fraction(13, 16), 0)).solver \
            == "structure"
        assert solve(beale_lp()).objective == pytest.approx(-1.25)

    def test_solver_is_not_serialised(self):
        sol = solve(build_lp_beta_lambda(16, Fraction(13, 16), 0))
        assert "solver" not in sol.to_dict()
        assert "structure" not in sol.to_dict()


# ---------------------------------------------------------------------------
# The beta dual family: the search and both pairs read one recursion
# ---------------------------------------------------------------------------

def reference_beta_dual_mass(n: int, s) -> Union[float, Fraction]:
    """sum_i y_pos_i of ``solve_beta``'s dual at s, as a loop of its own,
    in the arithmetic of s: on a float s, the function the search
    maximised before it read ``_beta_dual``; on a Fraction s, the exact
    mass."""
    L = math.ceil(s)
    half = n // 2
    Y = n - s
    above = 1 - (L - s)          # sum of y_pos_k over k > i
    for i in range(L - 1, 0, -1):
        if i <= half:
            u = max((above - 2 * i * Y / n) / (n - i), 0)
        else:
            u = above / (n - i)
        above += 1 - u
    return above


# the golden-section search that ``_beta_dual_argmax`` ran before it
# bisected on the integers: it stops once its bracket on s is this narrow
SEARCH_TOL = 1e-9
GOLDEN = (math.sqrt(5) - 1) / 2


def reference_beta_dual_argmax(n: int) -> float:
    """The golden-section search that ``_beta_dual_argmax`` ran before, on
    ``reference_beta_dual_mass``: a float maximiser within SEARCH_TOL."""
    golden, mass = GOLDEN, reference_beta_dual_mass
    lo, hi = n / 2, float(n)
    a, b = hi - golden * (hi - lo), lo + golden * (hi - lo)
    fa, fb = mass(n, a), mass(n, b)
    while hi - lo > SEARCH_TOL:
        if fa < fb:
            lo, a, fa = a, b, fb
            b = lo + golden * (hi - lo)
            fb = mass(n, b)
        else:
            hi, b, fb = b, a, fa
            a = hi - golden * (hi - lo)
            fa = mass(n, a)
    return (lo + hi) / 2


# The beta family's recursions as they ran on Fractions, and the search as
# it ran on floats, before all of them ran on integer pairs in ``lp``: the
# references ``TestBetaAgainstTheFractionReference`` holds them to

def reference_beta_dual(n: int, L: int, theta, Y, clipped=None):
    """u_1..u_{L-1} of ``solve_beta``'s dual at s = L - theta, whose
    second-half duals sum to Y, before clipping, the dual mass and the
    clipped rows: exact on Fractions, the searched function on floats.
    With ``clipped`` given, those rows are clipped whatever their sign;
    otherwise rows i <= n/2 with u_i < 0 are."""
    half = n // 2
    decide = clipped is None
    if decide:
        clipped = set()
    above = 1 - theta
    u = [0] * (L - 1)
    for i in range(L - 1, 0, -1):
        ui = above - 2 * i * Y / n if i <= half else above
        u[i - 1] = ui = ui / (n - i)
        if decide and i <= half and ui < 0:
            clipped.add(i)
        above += 1 if i in clipped else 1 - ui
    return u, above, clipped


def float_beta_dual_argmax(n: int) -> float:
    """The bisection of ``_beta_dual_argmax`` on the float masses of
    ``reference_beta_dual``, with L's clipping decided in floats."""
    @functools.cache
    def at(L):
        return reference_beta_dual(n, L, 0.0, n - L)

    L, hi = n // 2 + 1, n
    while L < hi:
        mid = (L + hi) // 2
        if at(mid + 1)[1] > at(mid)[1]:
            L = mid + 1
        else:
            hi = mid
    _, mass, clipped = at(L)
    if reference_beta_dual(n, L, 1.0, n - L + 1.0, clipped)[1] > mass:
        return L - 0.5
    if L < n and reference_beta_dual(n, L + 1, 0.0, n - L - 1.0,
                                     clipped)[1] > \
            reference_beta_dual(n, L + 1, 1.0, n - L, clipped)[1]:
        return L + 0.5
    return float(L)


def reference_beta_kink(n: int, s: float):
    """The kink of the dual mass next to s, on Fractions: L, theta, the
    clipped rows, and a row k whose u_k is 0 there, or None."""
    L = math.ceil(s)
    theta = Fraction(L - s)
    _, _, clipped = reference_beta_dual(n, L, theta, n - L + theta)
    u0, mass0, _ = reference_beta_dual(n, L, Fraction(0), Fraction(n - L),
                                       clipped)
    u1, mass1, _ = reference_beta_dual(n, L, Fraction(1),
                                       Fraction(n - L + 1), clipped)
    lo, hi, lo_row, hi_row = Fraction(0), Fraction(1), None, None
    for i in range(1, min(L, n // 2 + 1)):
        slope = u1[i - 1] - u0[i - 1]
        if slope == 0:
            continue
        root = -u0[i - 1] / slope
        if (slope > 0) != (i in clipped):
            if root >= lo:
                lo, lo_row = root, i
        elif root <= hi:
            hi, hi_row = root, i
    theta, k = (hi, hi_row) if mass1 > mass0 else (lo, lo_row)
    if theta == 1:
        L, theta = L - 1, Fraction(0)
    return L, theta, clipped, k


def reference_beta_head(n: int, L: int, clipped: set, k, t: Fraction):
    """w_1..w_L, a_1..a_L of ``solve_beta``'s primal head with a_k = t and
    a_i = 0 on clipped rows, and T, on Fractions."""
    r = Fraction(1, n)
    w, a = [], []
    for i in range(1, L + 1):
        ai = t if i == k else Fraction(0) if i in clipped else r
        w.append(r)
        a.append(ai)
        if i < n:
            r -= ai / (n - i)
    tail = Fraction(2, n) * sum(a[j - 1] * Fraction(j, n - j)
                                for j in range(1, n // 2 + 1))
    return w, a, tail


def reference_beta_pair(model: LpModel):
    """x, y and the structure of ``solve_beta`` on Fractions, from the
    float search, or the reason the structure does not apply."""
    meta = model.metadata
    n, beta = meta["n"], meta["beta"]
    half = n // 2
    L, theta, clipped, k = reference_beta_kink(n, float_beta_dual_argmax(n))
    if L <= half:
        return "dual maximum at s = n/2"

    u, _, _ = reference_beta_dual(n, L, theta, n - L + theta, clipped)
    y_ss = [Fraction(0) if i in clipped else u[i - 1] for i in range(1, L)]
    y_ss += [Fraction(0)] * (n - L + 1)
    y_pos = [1 - v for v in y_ss[:L - 1]] + [1 - theta] + \
        [Fraction(0)] * (n - L)
    y_sh = [Fraction(0)] * (L - half - 1) + [theta] + \
        [Fraction(1)] * (n - L)
    y = y_ss + y_pos + y_sh + [Fraction(1)]

    if k is not None:
        gaps = []
        for t in (Fraction(0), Fraction(1)):
            w, a, tail = reference_beta_head(n, L, clipped, k, t)
            gaps.append(w[-1] - tail)
        if gaps[0] == gaps[1]:
            return f"row {k} does not move position row {L}"
        t = gaps[0] / (gaps[0] - gaps[1])
    else:
        t = Fraction(0)
    w, a, tail = reference_beta_head(n, L, clipped, k, t)
    r = w[-1] - (a[-1] / (n - L) if L < n else 0)
    g = [Fraction(0)] * (L - half)
    left = beta
    for i in range(L + 1, n + 1):
        spent = min(left, tail - r)
        left -= spent
        g.append(spent)
        w.append(tail - spent)
        a.append(tail - spent)
        if i < n:
            r -= a[-1] / (n - i)
    if left > 0:
        return f"budget exceeds the tail's capacity by {float(left):.3g}"
    x = w + a + [Fraction(0)] * n + g
    structure = {"L": L, "theta": str(theta),
                 "clipped_rows": [i for i in range(1, L) if not y_ss[i - 1]]}
    return x, y, structure


def reference_beta_lambda_pair(model: LpModel):
    """x, y and the structure of ``solve_beta_lambda`` on Fractions."""
    meta = model.metadata
    n, beta = meta["n"], meta["beta"]
    lam_n, half = int(meta["lambda"] * n), n // 2
    zero, one = Fraction(0), Fraction(1)

    u, _, clipped = reference_beta_dual(n, lam_n, zero, Fraction(n - lam_n))
    w, a, tail = reference_beta_head(n, lam_n, clipped, lam_n, zero)
    binding = beta < (n - lam_n) * tail
    if not binding:
        u, _, clipped = reference_beta_dual(n, lam_n, zero, zero)
        w, a, tail = reference_beta_head(n, lam_n, clipped, lam_n, zero)
    g = [zero] * (n - half)
    left = beta
    for i in range(n, lam_n, -1):
        g[i - half - 1] = spent = min(tail, left)
        left -= spent
    w += [tail - g[i - half - 1] for i in range(lam_n + 1, n + 1)]
    a += [zero] * (n - lam_n)
    x = w + a + [zero] * n + g

    y_sh = one if binding else zero
    y_ss = [zero if i in clipped else u[i - 1] for i in range(1, lam_n)]
    y_pos = [1 - v for v in y_ss] + [one]
    y_ss += [zero] * (n - lam_n + 1)
    y = y_ss + y_pos + [y_sh] * (n - lam_n) + [y_sh]
    return x, y, {"position_rows": lam_n, "budget_binding": binding}


def closed_form_beta_lambda_pair(model: LpModel):
    """``_beta_lambda_pair`` with no row clipped, its primal head in closed
    form and its dual recursion written out, as it was before both read
    the beta family's shared recursions."""
    meta = model.metadata
    n, beta = meta["n"], meta["beta"]
    lam_n, half = int(meta["lambda"] * n), n // 2
    zero, one = Fraction(0), Fraction(1)

    a = ([Fraction(n - i, (n - 1) * n) for i in range(1, lam_n)]
         + [zero] * (n - lam_n + 1))
    tail = Fraction(2, n) * sum(a[j - 1] * Fraction(j, n - j)
                                for j in range(1, half + 1))
    binding = beta < (n - lam_n) * tail
    g = [zero] * (n - half)
    left = beta
    for i in range(n, lam_n, -1):
        g[i - half - 1] = spent = min(tail, left)
        left -= spent
    w = (a[:lam_n - 1] + [Fraction(n - lam_n, (n - 1) * n)]
         + [tail - g[i - half - 1] for i in range(lam_n + 1, n + 1)])
    x = w + a + [zero] * n + g

    y_sh = one if binding else zero
    total_sh = (n - lam_n) * y_sh
    y_ss, y_pos = [zero] * n, [zero] * (lam_n - 1) + [one]
    above = one          # sum of y_pos_k over k > i
    for i in range(lam_n - 1, 0, -1):
        ss = above - Fraction(2 * i, n) * total_sh if i <= half else above
        y_ss[i - 1] = ss = ss / (n - i)
        y_pos[i - 1] = 1 - ss
        above += 1 - ss
    y = y_ss + y_pos + [y_sh] * (n - lam_n) + [y_sh]
    return x, y, {"position_rows": lam_n, "budget_binding": binding}


def pair_of(v) -> tuple[int, int]:
    """A Fraction or int as its integer pair in lowest terms."""
    return v.numerator, v.denominator


def program_beta_dual_mass(n: int, s: Fraction) -> Fraction:
    """The search's function: the exact dual mass of ``_beta_dual`` at s."""
    L = math.ceil(s)
    return Fraction(*lp_module._beta_dual(n, L, pair_of(L - s),
                                          pair_of(n - s))[1])


DUAL_NS = [4, 8, 12, 16, 32, 128, 1024]
KINK_NS = sorted({*DUAL_NS, *range(4, 257, 4), 512, 1024, 2048, 4096})
PAIR_NS = [4, 8, 12, 16, 32, 64, 128, 256, 1024]
PAIR_LAMBDAS = (Fraction(1, 2), Fraction(3, 4), Fraction(13, 16),
                Fraction(7, 8), Fraction(1))
PAIR_BETAS = (Fraction(0), Fraction(1, 100), Fraction(1, 10), Fraction(3))


class TestBetaDualFamily:
    @pytest.mark.parametrize("n", DUAL_NS)
    def test_float_mass_is_the_reference_loop(self, n):
        """The mass the search reads, exact since it left floats, is the
        reference loop's run on Fractions, on a grid of s in (n/2, n],
        integers (theta = 0) and s = n included."""
        grid = [Fraction(n, 2) + Fraction(n * k, 400) for k in range(1, 201)]
        grid += [Fraction(s) for s in range(n // 2 + 1, n + 1)]
        assert grid[199] == n
        assert [program_beta_dual_mass(n, s) for s in grid] == \
            [reference_beta_dual_mass(n, s) for s in grid]

    @pytest.mark.parametrize("n", KINK_NS)
    def test_search_argmax_is_the_reference_search(self, n):
        """The bisection's point and the golden-section search's maximiser
        lead ``_beta_kink`` to the same kink (the clipped sets may differ
        at row k, whose u_k is 0 there)."""
        L, theta, _, k = lp_module._beta_kink(
            n, lp_module._beta_dual_argmax(n))
        ref_L, ref_theta, _, ref_k = lp_module._beta_kink(
            n, reference_beta_dual_argmax(n))
        assert (L, theta, k) == (ref_L, ref_theta, ref_k)

    @pytest.mark.parametrize("n", KINK_NS)
    def test_exact_search_is_the_float_search(self, n):
        """Comparing exact masses picks the point the float bisection
        picked, at every n the kink is checked at."""
        assert lp_module._beta_dual_argmax(n) == float_beta_dual_argmax(n)

    @pytest.mark.parametrize("n", DUAL_NS)
    def test_integer_mass_is_concave(self, n):
        """The bisection's premise: over integer L in (n/2, n] the exact
        mass has second differences <= 0 and its forward differences
        change sign at most once."""
        mass = [Fraction(*lp_module._beta_dual(n, L, (0, 1), (n - L, 1))[1])
                for L in range(n // 2 + 1, n + 1)]
        steps = [b - a for a, b in zip(mass, mass[1:])]
        assert all(b - a <= 0 for a, b in zip(steps, steps[1:]))
        signs = [d > 0 for d in steps]
        assert signs == sorted(signs, reverse=True)

    def test_search_reads_few_duals(self, monkeypatch):
        """At most 2 ceil(log2(n/2)) evaluations for the bisection and 3
        for the side of L: no tolerance sets the count.  Every one is the
        exact recursion, on integer pairs theta and Y."""
        n, calls = 1024, []
        dual = lp_module._beta_dual
        monkeypatch.setattr(lp_module, "_beta_dual",
                            lambda *args: calls.append(args) or dual(*args))
        lp_module._beta_dual_argmax(n)
        assert len(calls) <= 2 * math.ceil(math.log2(n / 2)) + 3
        for _, _, theta, Y, *_ in calls:
            assert all(type(v) is int for v in (*theta, *Y)), (theta, Y)

    @pytest.mark.parametrize("n", PAIR_NS)
    def test_beta_lambda_pair_is_the_reference_construction(self, n):
        """Where ``_beta_dual(n, L, 0, n - L)`` clips no row the pair is
        the reference construction.  Where it clips and the budget binds,
        below L a_i = 0 exactly on the clipped rows, y_ss_i = 0 on them and
        u_i on the others (u_i may be 0 too: u_4 at n=16, L = 8), and the
        pair is certified.  Where beta covers the clipped tail, the pair is
        the unclipped one: the reference's when beta covers that tail too,
        and otherwise it declines with a duality gap."""
        pairs = clipping = 0
        for lam in PAIR_LAMBDAS:
            if (lam * n).denominator != 1:
                continue
            L = int(lam * n)
            u, _, clipped = lp_module._beta_dual(n, L, (0, 1), (n - L, 1))
            u = [Fraction(*v) for v in u]
            for beta in PAIR_BETAS:
                model = build_lp_beta_lambda(n, lam, beta)
                x, y, structure = pair = fraction_pair(
                    _beta_lambda_pair(model))
                ref = closed_form_beta_lambda_pair(model)
                pairs += 1
                if structure["budget_binding"] and clipped:
                    assert {i for i in range(1, L) if x[n + i - 1] == 0} \
                        == clipped, (lam, beta)
                    assert y[:L - 1] == [0 if i in clipped else u[i - 1]
                                         for i in range(1, L)], (lam, beta)
                    assert isinstance(certify(model, *pair),
                                      LpSolution), (lam, beta)
                    clipping += 1
                elif clipped and ref[2]["budget_binding"]:
                    assert certify(model, *pair).startswith(
                        "duality gap"), (lam, beta)
                else:
                    assert pair == ref, (lam, beta)
        assert pairs >= 12
        assert clipping >= (2 if n >= 8 else 0)


def assert_dual_is_the_reference(n, L, theta, Y, clipped=None):
    """``_beta_dual`` on integer pairs against ``reference_beta_dual`` on
    the Fractions theta and Y: the same u and mass, in lowest terms, and
    the same clipped rows.  Returns ours."""
    theta, Y = Fraction(theta), Fraction(Y)
    ours = lp_module._beta_dual(n, L, pair_of(theta), pair_of(Y),
                                None if clipped is None else set(clipped))
    u, mass, ref_clipped = reference_beta_dual(
        n, L, theta, Y, None if clipped is None else set(clipped))
    assert ours == ([pair_of(v) for v in u], pair_of(mass), ref_clipped)
    return ours


def assert_head_is_the_reference(n, L, clipped, k, t):
    """``_beta_head`` on integer pairs against ``reference_beta_head`` at
    the Fraction t: the same w, a and T, in lowest terms."""
    w, a, tail = reference_beta_head(n, L, clipped, k, t)
    assert lp_module._beta_head(n, L, clipped, k, pair_of(t)) == \
        ([pair_of(v) for v in w], [pair_of(v) for v in a], pair_of(tail))


def assert_served_as_the_reference(model, solver, ref, pairs):
    """``solver`` on ``model`` against the reference pair ``ref`` (x, y
    and the structure in Fractions, or the reason to decline): the same
    pair, and the served solution ``certify`` makes of the reference's,
    with the same exact primal and bit-equal float x, or the same reason
    to decline.  ``pairs`` is the ``certified_pairs`` fixture."""
    pairs.clear()
    ours = solver(model)
    if isinstance(ref, str):
        assert ours == ref and not pairs
        return ours
    [pair] = pairs
    assert fraction_pair(pair) == ref
    x, y, structure = ref
    expected = certify(model, x, y, structure)
    if isinstance(expected, str):
        assert ours == expected
    else:
        assert ours.exact == expected.exact == x
        assert (ours.objective, ours.structure, ours.solver) == \
            (expected.objective, expected.structure, expected.solver)
        assert_bit_equal(ours.x, np.array([float(v) for v in x]))
    return ours


def assert_beta_is_the_reference(model, pairs):
    """``solve_beta`` against the Fraction references: the search's point,
    the kink (L, theta, clipped rows, k), the dual and the head there, and
    the served solution or the reason to decline."""
    n = model.metadata["n"]
    s = lp_module._beta_dual_argmax(n)
    assert s == float_beta_dual_argmax(n)
    L, theta, clipped, k = lp_module._beta_kink(n, s)
    ref_L, ref_theta, ref_clipped, ref_k = reference_beta_kink(n, s)
    assert (L, theta, clipped, k) == \
        (ref_L, pair_of(ref_theta), ref_clipped, ref_k)
    assert_dual_is_the_reference(n, L, ref_theta, n - L + ref_theta,
                                 clipped)
    for t in (Fraction(0), Fraction(1)):
        assert_head_is_the_reference(n, L, clipped, k, t)
    return assert_served_as_the_reference(model, solve_beta,
                                          reference_beta_pair(model), pairs)


def assert_beta_lambda_is_the_reference(model, pairs):
    """``solve_beta_lambda`` against the Fraction references: the dual and
    the head with the budget binding and slack, and the served solution
    or the reason to decline."""
    n, lam = model.metadata["n"], model.metadata["lambda"]
    L = int(lam * n)
    for Y in (n - L, 0):
        _, _, clipped = assert_dual_is_the_reference(n, L, 0, Y)
        assert_head_is_the_reference(n, L, clipped, L, Fraction(0))
    return assert_served_as_the_reference(
        model, solve_beta_lambda, reference_beta_lambda_pair(model), pairs)


class TestBetaAgainstTheFractionReference:
    """``solve_beta`` and ``solve_beta_lambda`` run their search, kink,
    dual and primal recursions on integer pairs; the Fraction recursions
    and the float search they replaced are the references they are held to
    exactly."""

    @pytest.mark.parametrize("n", STRUCTURE_NS)
    def test_beta_lambda_grid(self, n, certified_pairs):
        reasons = [assert_beta_lambda_is_the_reference(model,
                                                       certified_pairs)
                   for _, _, model in structure_grid(n)]
        assert any(isinstance(r, LpSolution) for r in reasons)

    def test_beta_lambda_where_clipping_stops_at_n1024(self, certified_pairs):
        """lambda n = 772..811 at beta 0: the pair clips rows below 812
        (``test_certified_from_three_minus_sqrt2_over_2``)."""
        for L in range(772, 812):
            assert_beta_lambda_is_the_reference(
                build_lp_beta_lambda(1024, Fraction(L, 1024), 0),
                certified_pairs)

    @pytest.mark.parametrize("n", range(4, 257, 4))
    def test_beta(self, n, certified_pairs):
        """Every n the builder takes (multiples of 4) from 4 to 256, at
        betas that certify and betas beyond the tail's capacity, which
        decline."""
        served = [assert_beta_is_the_reference(build_lp_beta(n, beta),
                                               certified_pairs)
                  for beta in (Fraction(0), Fraction(1, 100), Fraction(1, 10))]
        assert isinstance(served[0], LpSolution)

    def test_declines(self, certified_pairs):
        """A model edited away from the program the structure describes
        declines with the reference's reason, in both families."""
        reasons = []
        for build, check in ((lambda: build_lp_beta(16, 0),
                              assert_beta_is_the_reference),
                             (lambda: build_lp_beta_lambda(
                                 16, Fraction(13, 16), 0),
                              assert_beta_lambda_is_the_reference)):
            model = build()
            model.objective[0] = Fraction(2)
            reasons.append(check(model, certified_pairs))
            model = build()
            edit_a1_in_position_5(model)
            reasons.append(check(model, certified_pairs))
        assert [r.split()[:2] for r in reasons] == \
            [["duality", "gap"], ["dual", "residual"]] * 2

    @pytest.mark.parametrize("solver, build", [
        (solve_beta, lambda: build_lp_beta(1024, 0)),
        (solve_beta_lambda, lambda: build_lp_beta_lambda(
            1024, Fraction(13, 16), Fraction(1, 100)))],
        ids=["beta", "beta-lambda"])
    def test_no_fraction_per_row(self, monkeypatch, solver, build):
        """Solving at n=1024 makes a few Fractions, for the kink's theta and
        the certificate's sums, and none per row; the first read of
        ``exact`` makes one per nonzero entry and one shared zero, and a
        second read makes none."""
        model = build()
        made = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(cls)
            return new(cls, *args, **kwargs)
        monkeypatch.setattr(Fraction, "__new__", counting)
        solution = solver(model)
        solved = len(made)
        exact = solution.exact
        read = len(made) - solved
        assert solution.exact is exact
        reread = len(made) - solved - read
        monkeypatch.undo()
        assert solution.solver == "structure"
        assert solved <= 16, solved
        assert read == sum(1 for v in exact if v) + 1
        assert reread == 0


# ---------------------------------------------------------------------------
# The builders' float matrix
# ---------------------------------------------------------------------------

MATRIX_NS = list(range(4, 129, 4)) + [256, 512, 1024]
MATRIX_LAMBDAS = (Fraction(1, 2), Fraction(3, 4), Fraction(13, 16),
                  Fraction(1))
MATRIX_BETAS = (Fraction(0), Fraction(1, 100))


def assert_bit_equal(matrix, ref):
    assert matrix.dtype == ref.dtype == np.float64
    assert np.array_equal(matrix, ref)
    assert np.array_equal(np.signbit(matrix), np.signbit(ref))


def family_builders(n):
    """One builder per (family, lambda), each taking beta."""
    builders = [lambda beta: build_lp_beta(n, beta)]
    builders += [lambda beta, lam=lam: build_lp_beta_lambda(n, lam, beta)
                 for lam in MATRIX_LAMBDAS if (lam * n).denominator == 1]
    return builders


class TestFloatMatrix:
    @pytest.mark.parametrize("n", MATRIX_NS)
    def test_builder_matrix_is_the_elementwise_conversion(self, n):
        """Bit-equal, signed zeros included, to ``elementwise_floats`` of
        the model's own rows.  Beta enters only the rhs, so one conversion per
        (family, lambda) serves both betas."""
        for build in family_builders(n):
            models = [build(beta) for beta in MATRIX_BETAS]
            ref = elementwise_floats(models[0].rows)
            for model in models:
                assert_bit_equal(_float_matrix(model), ref)
        general = build_lp_general(n)
        assert_bit_equal(_float_matrix(general),
                         elementwise_floats(general.rows))

    def test_hand_built_model_gets_the_conversion(self):
        model = beale_lp()
        assert_bit_equal(_float_matrix(model), elementwise_floats(model.rows))
        empty = LpModel([Fraction(1)], [], [], ["x"], [])
        assert _float_matrix(empty).shape == (0, 1)

    def test_segment_edit_reaches_the_simplex(self):
        """min x subject to x >= 1, solved, then with its segment edited to
        say 2x >= 1."""
        model = dense_model([Fraction(1)], [[Fraction(1)]], [Fraction(1)],
                            ["x"], ["c1"])
        assert simplex_solve(model).objective == pytest.approx(1.0)
        model.segments[0] = [(0, [Fraction(2)], 1)]
        assert simplex_solve(model).objective == pytest.approx(0.5)

    def test_model_stores_only_its_fields(self):
        """Listing and solving a model, by its family's solver and by the
        simplex, leave nothing on it but its dataclass fields: the
        segments are the only stored form of A."""
        fields = {f.name for f in dataclasses.fields(LpModel)}
        models = [build_lp_general(16), build_lp_beta(16, Fraction(1, 100)),
                  build_lp_beta_lambda(16, Fraction(13, 16), 0), beale_lp()]
        for model in models:
            model.to_text()
            solve(model)
            simplex_solve(model)
            assert set(vars(model)) == fields, model.metadata

    def test_no_exact_solve_builds_the_matrix(self, monkeypatch, tmp_path):
        """No lp-sweep task served by the structure converts its model to
        floats."""
        served, converted = [], []

        def recording(model):
            before = len(converted)
            solution = solve(model)
            served.append((solution.solver, len(converted) - before))
            return solution

        def counting(model):
            converted.append(model)
            return _float_matrix(model)
        argvs = lp_sweep_argvs(monkeypatch)
        monkeypatch.setattr(cli_module, "solve", recording)
        monkeypatch.setattr(lp_module, "_float_matrix", counting)
        for argv in argvs:
            assert cli_main([*argv, "--out", str(tmp_path / "lp.json")]) == 0
        assert len(served) == len(argvs)
        exact = [calls for solver, calls in served if solver == "structure"]
        assert exact and not any(exact)

    def test_no_solve_reads_the_rows(self, monkeypatch, tmp_path):
        def refuse(model):
            raise AssertionError("a solve read the dense rational rows")
        argvs = lp_sweep_argvs(monkeypatch)
        monkeypatch.setattr(LpModel, "rows", property(refuse))
        for n in (8, 16, 64):
            models = [build(beta) for build in family_builders(n)
                      for beta in MATRIX_BETAS] + [build_lp_general(n)]
            for model in models:
                assert solve(model).status == "optimal"
                assert simplex_solve(model).status == "optimal"
        for argv in argvs:
            assert cli_main([*argv, "--out", str(tmp_path / "lp.json")]) == 0

    @pytest.mark.parametrize("build", [
        lambda: build_lp_general(1024),
        lambda: build_lp_beta(256, 0),
        lambda: build_lp_beta_lambda(256, Fraction(13, 16), Fraction(1, 100)),
    ], ids=["general-1024", "beta-256", "beta-lambda-256"])
    def test_build_and_solve_peak_stays_below_the_matrix(self, build):
        """No dense copy of A is made, rational or float: the traced peak
        of a build and its solve is at most 0.3 times the bytes of the
        float matrix, which is never built."""
        tracemalloc.start()
        try:
            model = build()
            solve(model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dense = model.num_rows * model.num_vars * 8
        assert peak <= 0.3 * dense, peak / dense

    def test_beta_4096_certifies_without_the_matrix(self, tmp_path, capsys):
        """The float matrix at n=4096 would be 10,241 x 14,336, 1.2 GB; the
        certified solve's traced peak stays below 96 MB."""
        out = tmp_path / "lp.json"
        tracemalloc.start()
        try:
            assert cli_main(["lp", "--family", "beta", "--n", "4096",
                             "--beta", "0", "--out", str(out)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "\nsolver = structure\n" in capsys.readouterr().err
        solution = json.loads(out.read_text())["results"]["solution"]
        assert (solution["objective"], solution["max_violation"]) == \
            (0.5307709287946348, 0.0)
        assert peak < 96 * 2 ** 20, peak / 2 ** 20


def lp_sweep_argvs(monkeypatch) -> list:
    """The argv of every task of the benchmark's lp-sweep workload, read
    from its workloads file unchanged."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH_WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    timed, _ = module.build_lp_sweep(0, None)
    return [task.argv for task in timed]


# ---------------------------------------------------------------------------
# The certificate's exact products against the dense rational rows
# ---------------------------------------------------------------------------

def certify(model, x, y, structure):
    """``_certified_solution`` on the Fraction vectors x and y, each made
    integers over one scale as the structural solvers pass them."""
    return _certified_solution(model, lp_module._scaled(x),
                               lp_module._scaled(y), structure)


def on_scaled(check, model, values) -> Fraction:
    """``check`` (``_row_shortfall`` or ``_column_excess``) on ``values``
    made integers over one scale, as ``_certified_solution`` passes them."""
    return check(model, *lp_module._scaled(values))


def dense_shortfall(rows, model, x) -> Fraction:
    """max(0, max_i (b_i - (A x)_i)) over ``sparse_rows(model)``."""
    return max([Fraction(0)]
               + [b - sum((c * x[j] for j, c in row), Fraction(0))
                  for row, b in zip(rows, model.rhs)])


def dense_excess(rows, model, y) -> Fraction:
    """max(0, max_j ((y A)_j - c_j)) over ``sparse_rows(model)``."""
    ya = [Fraction(0)] * model.num_vars
    for row, v in zip(rows, y):
        for j, c in row:
            ya[j] += c * v
    return max([Fraction(0)] + [v - c for v, c in zip(ya, model.objective)])


def random_rationals(rng, size) -> list:
    """Rationals in [-40, 40], about a third of them 0."""
    return [Fraction(0) if rng.random() < 0.3
            else Fraction(rng.randint(-40, 40), rng.randint(1, 50))
            for _ in range(size)]


def operator_models(n):
    """Every family at n on the builder grid, with the structural pair of
    each (None where beta's structure does not apply)."""
    for beta in BUILDER_BETAS:
        model = build_lp_beta(n, beta)
        pair = _beta_pair(model)
        yield model, None if isinstance(pair, str) else fraction_pair(pair)
        for lam in BUILDER_LAMBDAS:
            if (lam * n).denominator == 1:
                model = build_lp_beta_lambda(n, lam, beta)
                yield model, fraction_pair(_beta_lambda_pair(model))
    model = build_lp_general(n)
    yield model, (solve_general(model).exact, cost_to_go_dual(model), None)


class TestExactProducts:
    @pytest.mark.parametrize("n", BUILDER_NS)
    def test_families_match_the_dense_rows(self, n):
        """Exactly equal, on the structural pairs, certified or not, and on
        random x and y with zeros and negatives."""
        rng = random.Random(n)
        certified = 0
        for model, pair in operator_models(n):
            rows = sparse_rows(model)
            xs = [random_rationals(rng, model.num_vars) for _ in range(2)]
            ys = [random_rationals(rng, model.num_rows) for _ in range(2)]
            if pair is not None:
                x, y, _ = pair
                xs.append(x)
                if y is not None:
                    ys.append(y)
                    if exact_certificate_holds(model, x, y):
                        assert on_scaled(_row_shortfall, model, x) == 0
                        assert on_scaled(_column_excess, model, y) == 0
                        certified += 1
            for x in xs:
                assert on_scaled(_row_shortfall, model, x) == \
                    dense_shortfall(rows, model, x), model.metadata
            for y in ys:
                assert on_scaled(_column_excess, model, y) == \
                    dense_excess(rows, model, y), model.metadata
        assert certified >= 2

    def test_hand_built_models_match_the_dense_rows(self):
        """k = 0 segments, rows with no segment, integer coefficients, a
        sequence read at two columns to two lengths, and models with no
        rows."""
        f, seq = Fraction, [Fraction(1, 3), Fraction(-2, 5), 7]
        model = LpModel([f(1), f(-1, 2), f(0), f(2)],
                        [[(0, seq, 0), (0, seq, 2), (3, [f(5)], 1)],
                         [],
                         [(1, seq, 3)],
                         [(0, [f(1)], 0), (2, seq, 1)]],
                        [f(1, 7), f(-1), f(0), f(1, 2)],
                        ["x1", "x2", "x3", "x4"], ["r1", "r2", "r3", "r4"])
        rows = sparse_rows(model)
        rng = random.Random(0)
        for _ in range(20):
            x = random_rationals(rng, 4)
            y = random_rationals(rng, 4)
            assert on_scaled(_row_shortfall, model, x) == \
                dense_shortfall(rows, model, x)
            assert on_scaled(_column_excess, model, y) == \
                dense_excess(rows, model, y)
        empty = LpModel([f(1), f(-3, 4)], [], [], ["x", "y"], [])
        assert on_scaled(_row_shortfall, empty, [f(1), f(0)]) == 0
        assert on_scaled(_column_excess, empty, []) == f(3, 4)

    @pytest.mark.parametrize("solver, model", [
        (solve_beta, build_lp_beta(16, Fraction(1, 100))),
        (solve_beta_lambda, build_lp_beta_lambda(16, Fraction(13, 16), 0)),
        (solve_general, build_lp_general(16))],
        ids=["beta", "beta-lambda", "general"])
    def test_one_scaling_per_certificate(self, monkeypatch, solver, model):
        """A certified pair scales the model's sequences once: the row
        check reads ``_scaled_sequences``, and the column check keeps each
        column's own denominators instead.  The certificate takes x and y
        as integers over one scale each, and every check reads those: every
        solver makes them from integer pairs, so none scales a Fraction
        vector (``_scaled``) for x or y."""
        calls, scaled_calls, pairs = [], [], []
        sequences = lp_module._scaled_sequences
        monkeypatch.setattr(lp_module, "_scaled_sequences",
                            lambda m: calls.append(m) or sequences(m))
        scaled = lp_module._scaled
        monkeypatch.setattr(lp_module, "_scaled", lambda v: scaled_calls.append(
            (v, scaled(v))) or scaled_calls[-1][1])
        certify = lp_module._certified_solution
        monkeypatch.setattr(lp_module, "_certified_solution",
                            lambda m, x, y, structure: pairs.append((x, y))
                            or certify(m, x, y, structure))
        assert solver(model).status == "optimal"
        assert calls == [model]
        [(x, y)] = pairs
        for ints, scale in (x, y):
            assert all(type(v) is int for v in [*ints, scale])
        assert not any(out is x or out is y for _, out in scaled_calls)
        for vector in (model.objective, model.rhs):
            assert sum(v is vector for v, _ in scaled_calls) == 1


# ---------------------------------------------------------------------------
# LpModel's checks of its segments
# ---------------------------------------------------------------------------

ONE_TWO = [Fraction(1), Fraction(2)]


def segment_model(row, **kwargs) -> LpModel:
    """One row ``row`` over three columns, unless ``kwargs`` says other."""
    fields = {"objective": [Fraction(1)] * 3, "segments": [row],
              "rhs": [Fraction(0)], "var_names": ["x", "y", "z"],
              "row_names": ["r1"]}
    return LpModel(**{**fields, **kwargs})


class TestLpModelValidation:
    def test_adjacent_segments_fill_the_row(self):
        model = segment_model([(0, ONE_TWO, 2), (2, ONE_TWO, 1)])
        assert model.rows == [[1, 2, 1]]
        assert _float_matrix(model).tolist() == [[1.0, 2.0, 1.0]]

    @pytest.mark.parametrize("row", [
        [(0, ONE_TWO, 2), (1, ONE_TWO, 1)],
        [(2, ONE_TWO, 1), (0, ONE_TWO, 1)],
        [(2, ONE_TWO, 2)],
        [(0, ONE_TWO, 3)],
    ], ids=["overlapping", "out-of-order", "past-last-column", "k-too-long"])
    def test_bad_segments_raise(self, row):
        with pytest.raises(ValueError, match="row r1 has wrong width"):
            segment_model(row)

    def test_wrong_objective_length_raises(self):
        with pytest.raises(ValueError, match="objective length"):
            segment_model([], objective=[Fraction(1)] * 2)

    @pytest.mark.parametrize("field,value", [
        ("segments", [[], []]), ("rhs", [Fraction(0)] * 2),
        ("row_names", ["r1", "r2"])])
    def test_count_mismatch_raises(self, field, value):
        with pytest.raises(ValueError, match="row, rhs and name counts differ"):
            segment_model([], **{field: value})


def test_structural_solvers_exported_from_package():
    from swmlab import solve_beta, solve_beta_lambda, solve_general
    assert (solve_beta, solve_beta_lambda, solve_general) == (
        lp_module.solve_beta, lp_module.solve_beta_lambda,
        lp_module.solve_general)
