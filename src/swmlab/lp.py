"""Factor-revealing linear programs and their solvers.

All models are of the form: minimize c.x subject to A.x >= b, x >= 0.
Coefficients are exact rationals, so the plain-text export can be fed to
external solvers verbatim, and each is written once: a row of A is a few
segments of coefficient sequences that many rows share.  The exact solvers
read A only through the segments, by exact row and column products in
O(n) integer steps, and so does the listing; the simplex converts them to
floats for its own solve, and the dense rational rows are built only when
a caller reads them.

``solve(model)`` picks the solver for the model's family, and the simplex
runs when that solver declines with a reason.  Each family's solver builds
the optimum and a dual from the structure of the solution in O(n) exact
steps and returns it only when the pair is a certificate
(``_certified_solution``: both feasible, equal objectives, all checked
exactly on the model's own costs, rhs and rows, on integers over one
scale per vector):

- general: ``solve_general``, by a backward recursion over the position
  rows, whose cost-to-go gives the dual, all on Python integers: it
  reads each cost once as its numerator and denominator, and Fractions
  are made only for the exact primal of a certified pair;
- beta-lambda: ``solve_beta_lambda``, and beta: ``solve_beta``.  One dual
  recursion, ``_beta_dual``, serves both certificates under one clipping
  rule (a row i <= n/2 whose u_i < 0 gets step-split dual 0 and a_i = 0)
  and, in floats, the search for the beta dual's maximiser; one primal
  recursion, ``_beta_head``, serves both primals; both run on Fractions.

``simplex_solve`` is a dense two-phase primal simplex in floats:
largest-coefficient pricing that falls back to Bland's lowest-index rule
on long degenerate runs, a ratio test whose ties go to the lowest basis
index, and artificial variables only for rows that need one, with no
stored columns.  It is also the reference that tests hold the exact
solvers to.
"""
from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

# the simplex's float tolerances: an entry above PIVOT_TOL can pivot and a
# reduced cost below -PIVOT_TOL improves; phase 1 ends feasible within
# FEAS_TOL.  No exact solver reads either.
PIVOT_TOL = 1e-9
FEAS_TOL = 1e-9
# after this many consecutive degenerate pivots the entering column is the
# lowest-index improving one until a pivot moves the objective again;
# Bland's rule cannot cycle, so neither can the simplex
DEGENERATE_LIMIT = 50

Rational = Union[int, Fraction]


def _to_fraction(x) -> Fraction:
    """Exact rational from int/Fraction, or the decimal literal of a float
    (so 0.01 becomes 1/100, not its binary approximation)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(str(x))


def _finite_or_none(x: float) -> Optional[float]:
    return x if math.isfinite(x) else None


@dataclass
class LpModel:
    """LP: minimize objective.x with A.x >= rhs, x >= 0.

    Each row of A is a list of segments ``(col, coeffs, k)``, in column
    order and disjoint: the first k entries of the exact sequence
    ``coeffs`` sit at columns col .. col+k-1, and every other entry is 0.
    Rows share their sequences, so each coefficient is made once.  The
    segments are the only stored form of A; ``rows`` builds the dense
    rational rows on every read.
    """

    objective: list[Fraction]
    segments: list[list[tuple[int, Sequence[Rational], int]]]
    rhs: list[Fraction]
    var_names: list[str]
    row_names: list[str]
    metadata: dict = field(default_factory=dict)
    constant: Fraction = Fraction(0)   # added to the objective on report

    def __post_init__(self):
        ncols = len(self.var_names)
        if len(self.objective) != ncols:
            raise ValueError("objective length does not match variable count")
        if not len(self.segments) == len(self.rhs) == len(self.row_names):
            raise ValueError("row, rhs and name counts differ")
        for name, row in zip(self.row_names, self.segments):
            end = 0
            for col, coeffs, k in row:
                if col < end or not 0 <= k <= len(coeffs) or col + k > ncols:
                    raise ValueError(f"row {name} has wrong width")
                end = col + k

    @property
    def rows(self) -> list[list[Rational]]:
        """The dense rational rows, built from the segments; not cached,
        since no solve reads them and they take O(num_rows num_vars)."""
        dense = []
        for row in self.segments:
            values = [Fraction(0)] * self.num_vars
            for col, coeffs, k in row:
                values[col:col + k] = coeffs[:k]
            dense.append(values)
        return dense

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    @property
    def num_rows(self) -> int:
        return len(self.row_names)

    def to_text(self) -> str:
        """One-line-per-constraint listing with exact rationals."""
        return "".join(self._listing())

    def _listing(self):
        """The lines of ``to_text``, each with its newline, made one at a
        time from the segments; each shared sequence is written out once."""
        objective = [(0, self.objective, self.num_vars)]
        written = _shared_sequences([objective, *self.segments], lambda seq: [
            f"{'+' if c > 0 else '-'} {abs(c)}" if c else "" for c in seq])

        def terms(row):
            parts = [f"{term} {name}" for col, coeffs, k in row for term, name
                     in zip(written[id(coeffs)], self.var_names[col:col + k])
                     if term]
            return " ".join(parts) if parts else "0"

        constant = f" + {self.constant}" if self.constant else ""
        yield f"minimize: {terms(objective)}{constant}\n"
        for name, row, b in zip(self.row_names, self.segments, self.rhs):
            yield f"{name}: {terms(row)} >= {b}\n"
        bounds = ", ".join(f"{v} >= 0" for v in self.var_names)
        yield f"bounds: {bounds}\n"


def _shared_sequences(segments, convert) -> dict:
    """id -> ``convert`` of each sequence the rows ``segments`` read, once,
    up to the longest k a row reads; ``segments`` keeps every id in use."""
    longest = {}
    for row in segments:
        for _, coeffs, k in row:
            if id(coeffs) not in longest or k > longest[id(coeffs)][1]:
                longest[id(coeffs)] = coeffs, k
    return {key: convert(coeffs[:k]) for key, (coeffs, k) in longest.items()}


@dataclass
class LpSolution:
    status: str                  # optimal | infeasible | unbounded
    objective: float             # includes the model constant
    x: Optional[np.ndarray]
    max_violation: float
    iterations: int              # simplex pivots; 0 for the exact solvers
    # exact primal values and the optimum's structure, from the exact solvers
    exact: Optional[list[Fraction]] = None
    structure: Optional[dict] = None
    # how the solution was found, as ``lp`` prints it to stderr; not
    # serialised, so reports do not depend on it
    solver: str = "simplex"

    def to_dict(self) -> dict:
        """JSON-ready fields; a non-finite objective or violation (an
        infeasible or unbounded LP) is written as null."""
        return {"status": self.status,
                "objective": _finite_or_none(self.objective),
                "x": None if self.x is None else [float(v) for v in self.x],
                "max_violation": _finite_or_none(self.max_violation),
                "iterations": self.iterations}


# ---------------------------------------------------------------------------
# Model builders
# ---------------------------------------------------------------------------

def _check_n(n: int):
    if n < 4 or n % 4 != 0:
        raise ValueError(f"n must be a multiple of 4 and at least 4, got {n}")


def _check_beta(beta) -> Fraction:
    beta = _to_fraction(beta)
    if beta < 0:
        raise ValueError(f"beta must be non-negative, got {beta}")
    try:
        float(beta)     # the simplex reads the rhs as floats
    except OverflowError:
        raise ValueError("beta is too large for a float (above 1.8e308)"
                         ) from None
    return beta


def _check_lambda(lam, n: int) -> tuple[Fraction, int]:
    """lambda as a Fraction and lambda*n, after checking 1/2 <= lambda <= 1
    and that lambda*n is an integer."""
    lam = _to_fraction(lam)
    if lam < Fraction(1, 2):
        raise ValueError(f"lambda must be at least 1/2, got {lam}")
    if lam > 1:
        raise ValueError(f"lambda must be at most 1, got {lam}")
    lam_n = lam * n
    if lam_n.denominator != 1:
        raise ValueError(f"lambda*n must be an integer, got {lam}*{n} = {lam_n}")
    return lam, int(lam_n)


def build_lp_beta(n: int, beta) -> LpModel:
    """The full trace-constraint LP with slack variables for the second half.

    Variables w_i, a_i, b_i for i = 1..n and g_i for i = n/2+1..n; minimize
    sum w_i subject to:
      (1) w_i >= b_i + a_i                                     for all i
      (2) w_i >= 1/n - sum_{j<i} a_j/(n-j)                     for all i
      (3) w_i >= (sum_{j<=n/2}(a_j j/(n-j) - b_j))/(n/2) - g_i for i > n/2
      (4) beta >= sum_{i<=n/2} b_i + sum_{i>n/2} g_i
    """
    _check_n(n)
    beta = _check_beta(beta)
    return _build_trace_lp(n, beta, pos_hi=n, sh_lo=n // 2,
                           metadata={"family": "beta", "n": n, "beta": beta})


def build_lp_beta_lambda(n: int, lam, beta) -> LpModel:
    """Relaxation keeping constraint (2) only for i <= lam*n and (3) only
    for i > lam*n; its optimum is at most the full model's."""
    _check_n(n)
    beta = _check_beta(beta)
    lam, lam_n = _check_lambda(lam, n)
    return _build_trace_lp(n, beta, pos_hi=lam_n, sh_lo=lam_n,
                           metadata={"family": "beta_lambda", "n": n,
                                     "lambda": lam, "beta": beta})


def _build_trace_lp(n: int, beta: Fraction, pos_hi: int, sh_lo: int,
                    metadata: dict) -> LpModel:
    """Shared builder: position rows for i <= pos_hi, second-half rows for
    i > sh_lo.  Every coefficient is made once, and each row is segments of
    the shared sequences."""
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

    zero, ones, minus_ones = Fraction(0), [Fraction(1)], [Fraction(-1)] * half
    objective = ones * n + [zero] * (ncols - n)

    rows, rhs, row_names = [], [], []
    for i in range(1, n + 1):
        rows.append([(w(i), ones, 1), (a(i), minus_ones, 1),
                     (b(i), minus_ones, 1)])
        rhs.append(zero)
        row_names.append(f"step_split_{i}")

    # a_j/(n-j) for j = 1..pos_hi-1
    inv = [Fraction(1, n - j) for j in range(1, pos_hi)]
    for i in range(1, pos_hi + 1):
        rows.append([(w(i), ones, 1), (a(1), inv, i - 1)])
        rhs.append(Fraction(1, n))
        row_names.append(f"position_{i}")

    sh_a = [Fraction(-2, n) * Fraction(j, n - j) for j in range(1, half + 1)]
    sh_b = [Fraction(2, n)] * half
    for i in range(sh_lo + 1, n + 1):
        rows.append([(w(i), ones, 1), (a(1), sh_a, half), (b(1), sh_b, half),
                     (g(i), ones, 1)])
        rhs.append(zero)
        row_names.append(f"second_half_{i}")

    rows.append([(b(1), minus_ones, half), (g(half + 1), minus_ones, half)])
    rhs.append(-beta)
    row_names.append("slack_budget")

    return LpModel(objective, rows, rhs, var_names, row_names, metadata)


def build_lp_general(n: int) -> LpModel:
    """The general lower-bound program over a_i, b_i for i <= 3n/4.

    Minimize sum_{i<=n/2}((1 + (i - n/4)/(6(n-i))) a_i + 5/6 b_i)
           + sum_{n/2<i<=3n/4}((5/6 + (n/4)/(6(n-i))) a_i + 5/6 b_i)
    subject to a_i + b_i >= 1/n - sum_{j<i} a_j/(n-j) for i = 1..3n/4.
    The additive constant 1/24 is carried in ``constant`` and included in
    reported objective values.  ``solve_general`` solves it exactly.

    Term by term, the objective (constant included) is
        sum_{i<=n/2}(a_i + b_i) + 5/6 sum_{n/2<i<=3n/4}(a_i + b_i) + R/6,
    where R is eq1's right-hand side, as ``verify_eq1`` checks it:
        R = 1/4 + sum_{i<=n/2}((i - n/4)/(n-i) a_i - b_i)
                + sum_{n/2<i<=3n/4} (n/4)/(n-i) a_i,
    so the constant 1/24 is (1/6)(1/4).
    """
    _check_n(n)
    half, three_q = n // 2, 3 * n // 4
    var_names = ([f"a_{i}" for i in range(1, three_q + 1)]
                 + [f"b_{i}" for i in range(1, three_q + 1)])

    def a(i): return i - 1
    def b(i): return three_q + i - 1

    # c_a(i) = 1 + (i - n/4)/(6(n-i)) up to n/2 and 5/6 + (n/4)/(6(n-i))
    # above, each one Fraction over 24(n-i); c_b(i) = 5/6
    objective = ([Fraction(24 * (n - i) + 4 * i - n, 24 * (n - i))
                  for i in range(1, half + 1)]
                 + [Fraction(20 * (n - i) + n, 24 * (n - i))
                    for i in range(half + 1, three_q + 1)]
                 + [Fraction(5, 6)] * three_q)

    # a_j/(n-j) for j = 1..3n/4-1
    inv, ones = [Fraction(1, n - j) for j in range(1, three_q)], [Fraction(1)]
    rows = [[(a(1), inv, i - 1), (a(i), ones, 1), (b(i), ones, 1)]
            for i in range(1, three_q + 1)]
    rhs = [Fraction(1, n)] * three_q
    row_names = [f"position_{i}" for i in range(1, three_q + 1)]

    return LpModel(objective, rows, rhs, var_names, row_names,
                   {"family": "general_lb", "n": n},
                   constant=Fraction(1, 24))


# ---------------------------------------------------------------------------
# Exact solver for the general program
# ---------------------------------------------------------------------------

def _general_recursion(model: LpModel) -> tuple[int, list, list]:
    """n, k_1..k_{m+1} and each row's first cheapest candidate (0, 1, 2):
    the cost of rows i..m per unit of row i's residual r for a_i = 0, r
    and (n-i) r.  Each k_i is a pair (numerator, denominator) of Python
    integers in lowest terms, and the candidates are compared by cross-
    multiplication, ties to the first."""
    n = _check_model(model, "general")
    rows = 3 * n // 4
    cost = [(c.numerator, c.denominator) for c in model.objective]
    if any(num < 0 for num, _ in cost):
        raise ValueError("solve_general needs non-negative costs")
    kn, kd = 0, 1
    k, choices = [(kn, kd)], []
    for i in range(rows, 0, -1):
        (an, ad), (bn, bd), step = cost[i - 1], cost[rows + i - 1], n - i
        # c_b + k, then c_a + k (step-1)/step, then c_a step
        num, den, choice = bn * kd + kn * bd, bd * kd, 0
        n1, d1 = an * kd * step + kn * (step - 1) * ad, ad * kd * step
        if n1 * den < num * d1:
            num, den, choice = n1, d1, 1
        n2 = an * step
        if n2 * den < num * ad:
            num, den, choice = n2, ad, 2
        g = math.gcd(num, den)
        kn, kd = num // g, den // g
        k.append((kn, kd))
        choices.append(choice)
    return n, k[::-1], choices[::-1]


def solve_general(model: LpModel) -> Union[LpSolution, str]:
    """Optimum of ``build_lp_general``'s program from a backward recursion
    over its position rows, in O(n) steps on Python integers, proved by a
    dual; or, when the proof fails, the reason, and the caller runs the
    simplex.

    Let r_i = 1/n - sum_{j<i} a_j/(n-j) be the residual of position row i.
    Row i reads a_i + b_i >= r_i, and r_{i+1} = r_i - a_i/(n-i).  With every
    cost non-negative, the least cost of rows i..m from residual r is
    k_i max(r, 0), by induction from k_{m+1} = 0.  At r > 0 the cheapest b_i
    is max(r - a_i, 0), so row i costs
        c_a(i) a + c_b(i) max(r - a, 0) + k_{i+1} max(r - a/(n-i), 0),
    a convex piecewise-linear function of a >= 0 with breaks at a = r and
    a = (n-i) r and slope c_a(i) >= 0 past the last one.  Its minimum is at
    one of the three candidates a = 0, r or (n-i) r, so
        k_i = min(c_b(i) + k_{i+1}, c_a(i) + k_{i+1}(1 - 1/(n-i)),
                  c_a(i)(n-i)),
    and the optimum is k_1/n plus the model constant.  A forward pass from
    r_1 = 1/n takes each row's first minimiser, kept from the backward pass,
    and yields exact a, b.

    The dual on row i is y_i = Y_i - Y_{i+1}, with Y_i = min(k_1..k_i) the
    running minimum and Y_{m+1} = 0, so y >= 0, sum_{j>i} y_j = Y_{i+1} and
    b.y = Y_1/n = k_1/n.  Column b_i reads y_i <= c_b(i), and column a_i
    reads Y_i - Y_{i+1}(1 - 1/(n-i)) <= c_a(i).  Where Y_{i+1} = k_{i+1},
    both follow from Y_i <= k_i and the first two candidates of k_i; where
    Y_{i+1} = Y_i, y_i = 0 and the a column reads Y_i/(n-i) <= k_i/(n-i)
    <= c_a(i), the third.  The plain differences k_i - k_{i+1} are the same
    dual where k does not increase, as for the builder's costs, but turn
    negative where k rises.

    No Fraction is made per row.  The recursion keeps each k_i as an
    integer pair in lowest terms (``_general_recursion``); the forward
    pass keeps r in lowest terms and writes a and b as integers over the
    lcm of the denominators r takes, exact for any non-negative costs; Y
    and y are integers over the lcm of k's denominators.  The certificate
    reads those integers, and the Fractions of the reported exact primal
    are made only once it passes.

    Nothing above is trusted: the pair is returned only if
    ``_certified_solution`` passes it on the model's own costs, rhs and
    rows, so a model with other rows is solved when the pair still proves
    it.  ``structure`` holds the switch point: the first row whose b is
    positive, or None.  Raises ValueError for another family or shape, or
    a negative cost.
    """
    n, k, choices = _general_recursion(model)
    # each entry of a and b is 0, r or (n-i) r, with r = rn/rd in lowest
    # terms; x's scale is the lcm of the denominators r takes
    rn, rd = 1, n
    a, b, dens = [], [], {n}
    for i, choice in enumerate(choices, 1):
        step = n - i
        if choice == 0:             # b_i = r, and r carries over
            a.append((0, 1))
            b.append((rn, rd))
        elif choice == 1:           # a_i = r, and r (n-i-1)/(n-i) carries
            a.append((rn, rd))
            b.append((0, 1))
            rn, rd = rn * (step - 1), rd * step
            g = math.gcd(rn, rd)
            rn, rd = rn // g, rd // g
            dens.add(rd)
        else:                       # a_i = (n-i) r, and nothing carries
            a.append((step * rn, rd))
            b.append((0, 1))
            rn, rd = 0, 1
    x_scale = math.lcm(*dens)
    xs = [num * (x_scale // den) for num, den in a + b]
    switch = next((i for i, (num, _) in enumerate(b, 1) if num > 0), None)
    # Y_i = min(k_1..k_i) and y_i = Y_i - Y_{i+1}, over the lcm of k's
    # denominators
    y_scale = math.lcm(*{den for _, den in k})
    floor = itertools.accumulate(
        (num * (y_scale // den) for num, den in k[:-1]), min)
    ys = [hi - lo for hi, lo in itertools.pairwise([*floor, 0])]
    return _certified_solution(model, (xs, x_scale), (ys, y_scale),
                               {"switch_point": switch})


# ---------------------------------------------------------------------------
# Structural solver for the beta-lambda relaxation
# ---------------------------------------------------------------------------

def _beta_lambda_pair(model: LpModel) -> tuple[list[Fraction],
                                               list[Fraction], dict]:
    """The structured primal x and dual y of ``solve_beta_lambda``, exact
    and in the model's column and row order, and the structure: L and
    whether the slack budget binds.  The clipped rows are ``_beta_dual``'s
    decision at theta = 0 and the pair's Y."""
    meta = model.metadata
    n, beta = meta["n"], meta["beta"]
    lam_n, half = int(meta["lambda"] * n), n // 2
    zero, one = Fraction(0), Fraction(1)

    # the budget binds unless beta covers the clipped tail's capacity; then
    # its row is slack, y_sh = y_bud = 0, so Y = 0 and no row is clipped
    u, _, clipped = _beta_dual(n, lam_n, zero, Fraction(n - lam_n))
    w, a, tail = _beta_head(n, lam_n, clipped, lam_n, zero)
    binding = beta < (n - lam_n) * tail
    if not binding:
        u, _, clipped = _beta_dual(n, lam_n, zero, zero)
        w, a, tail = _beta_head(n, lam_n, clipped, lam_n, zero)
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


def solve_beta_lambda(model: LpModel) -> Union[LpSolution, str]:
    """Optimum of ``build_lp_beta_lambda``'s program from the structure of
    its solution, in O(n) rational steps, proved by a dual; or, when the
    proof fails, the reason, and the caller runs the simplex.

    The dual has y_ss_i, y_pos_i, y_sh_i and y_bud on the step-split,
    position, second-half and budget rows.  It maximises
    sum_{i<=L} y_pos_i/n - beta y_bud subject to, with Y = sum_i y_sh_i,
      w_i:  y_ss_i + [i<=L] y_pos_i + [i>L] y_sh_i <= 1
      a_i:  -y_ss_i + sum_{i<k<=L} y_pos_k/(n-i) - [i<=n/2] 2i Y/(n(n-i)) <= 0
      b_i:  -y_ss_i + [i<=n/2](2Y/n - y_bud) <= 0
      g_i:  [i>L] y_sh_i - y_bud <= 0,
    with L = lambda n.  It is ``solve_beta``'s dual at s = L (theta = 0),
    with no second-half row at or below L, and the pair follows
    ``solve_beta``'s argument with its clipping rule.  When the budget
    binds, every tail row i > L has y_sh_i = 1 and y_bud = 1, so Y = n - L;
    ``_beta_dual`` gives u_i, clips the rows i <= n/2 with u_i < 0, and
    sets y_ss_i = u_i, y_pos_i = 1 - u_i on the others, y_ss_i = 0,
    y_pos_i = 1 on clipped ones, and y_pos_L = 1.  The primal head
    (``_beta_head`` with a_L = 0) has w_i = r_i on rows i <= L, a_i = r_i
    on those below L that are not clipped, a_i = 0 on clipped ones, b = 0,
    so position rows 1..L are tight; with T the second half's gain
    (2/n) sum_{j<=n/2} a_j j/(n-j), each tail row gets w_i = T - g_i, beta
    spent on g from i = n backwards, at most T per row.  The budget binds
    when beta < (n-L) T.  Otherwise its row is slack: y_bud = 0, g's
    columns force y_sh = 0, Y = 0, no u_i is negative and nothing is
    clipped, and the pair is rebuilt on that dual.

    Where clipping lowers T, a beta between the clipped and the unclipped
    tail's capacity fits neither pair: the budget binds on the unclipped
    head, but its dual has y_bud = 0, and the pair declines with a duality
    gap, (n-L) T - beta for the unclipped T (on the test grid, lambda <=
    5/8 with beta at 1/20 or 1/10).

    Nothing above is trusted: the pair is returned only if
    ``_certified_solution`` passes it, and then by weak duality x is
    optimal.  ``structure`` holds L and whether the budget binds.  Raises
    ValueError for a model of another family or shape.
    """
    _check_model(model, "beta_lambda")
    x, y, structure = _beta_lambda_pair(model)
    return _certified_solution(model, _scaled(x), _scaled(y), structure)


# ---------------------------------------------------------------------------
# Structural solver for the full beta program
# ---------------------------------------------------------------------------

def _beta_dual_argmax(n: int) -> float:
    """A point s, n/2 < s <= n, on the piece of the float dual mass of
    ``_beta_dual`` where it is largest, for ``_beta_kink``: the best
    integer L, by bisection on the sign of mass(L+1) - mass(L) (the mass
    is concave, see ``solve_beta``), or L - 1/2 or L + 1/2 when the mass
    rises off L on the affine piece on that side, with L's clipping."""
    @functools.cache
    def at(L):
        return _beta_dual(n, L, 0.0, n - L)

    L, hi = n // 2 + 1, n
    while L < hi:
        mid = (L + hi) // 2
        if at(mid + 1)[1] > at(mid)[1]:
            L = mid + 1
        else:
            hi = mid
    _, mass, clipped = at(L)
    if _beta_dual(n, L, 1.0, n - L + 1.0, clipped)[1] > mass:
        return L - 0.5
    if L < n and _beta_dual(n, L + 1, 0.0, n - L - 1.0, clipped)[1] > \
            _beta_dual(n, L + 1, 1.0, n - L, clipped)[1]:
        return L + 0.5
    return float(L)


def _beta_dual(n: int, L: int, theta, Y, clipped: Optional[set] = None
               ) -> tuple[list, Union[Fraction, float], set]:
    """u_1..u_{L-1} of ``solve_beta``'s dual at s = L - theta, whose
    second-half duals sum to Y, before clipping, the dual mass sum_i y_pos_i,
    and the clipped rows: exact on Fractions, the searched function on
    floats.  With ``clipped`` given, those rows are clipped whatever their
    sign, so every value is affine in theta and Y; otherwise rows i <= n/2
    with u_i < 0 are."""
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


def _beta_kink(n: int, s: float) -> tuple[int, Fraction, set, Optional[int]]:
    """The kink of the dual mass next to s: L, theta, the clipped rows, and
    a row k whose u_k is 0 there (None if there is none; always one when
    theta > 0)."""
    L = math.ceil(s)
    theta = Fraction(L - s)
    _, _, clipped = _beta_dual(n, L, theta, n - L + theta)
    # with the clipping fixed, u and the mass are affine in theta on [0, 1]
    u0, mass0, _ = _beta_dual(n, L, Fraction(0), Fraction(n - L), clipped)
    u1, mass1, _ = _beta_dual(n, L, Fraction(1), Fraction(n - L + 1),
                              clipped)
    lo, hi, lo_row, hi_row = Fraction(0), Fraction(1), None, None
    for i in range(1, min(L, n // 2 + 1)):
        slope = u1[i - 1] - u0[i - 1]
        if slope == 0:
            continue
        root = -u0[i - 1] / slope
        # the clipping holds while clipped rows keep u <= 0, others u >= 0
        if (slope > 0) != (i in clipped):
            if root >= lo:
                lo, lo_row = root, i
        elif root <= hi:
            hi, hi_row = root, i
    theta, k = (hi, hi_row) if mass1 > mass0 else (lo, lo_row)
    if theta == 1:               # s = L - 1 is the same dual at theta = 0
        L, theta = L - 1, Fraction(0)
    return L, theta, clipped, k


def _beta_head(n: int, L: int, clipped: set, k: Optional[int],
               t: Fraction) -> tuple[list, list, Fraction]:
    """w_1..w_L, a_1..a_L of ``solve_beta``'s primal head with a_k = t and
    a_i = 0 on clipped rows, and T (L >= n/2)."""
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


def _beta_pair(model: LpModel) -> Union[tuple[list, list, dict], str]:
    """The structured primal x and dual y of ``solve_beta``, exact and in
    the model's column and row order, and the structure; or the reason the
    structure does not apply."""
    meta = model.metadata
    n, beta = meta["n"], meta["beta"]
    half = n // 2
    L, theta, clipped, k = _beta_kink(n, _beta_dual_argmax(n))
    if L <= half:
        return "dual maximum at s = n/2"

    u, _, _ = _beta_dual(n, L, theta, n - L + theta, clipped)
    y_ss = [Fraction(0) if i in clipped else u[i - 1] for i in range(1, L)]
    y_ss += [Fraction(0)] * (n - L + 1)
    y_pos = [1 - v for v in y_ss[:L - 1]] + [1 - theta] + \
        [Fraction(0)] * (n - L)
    y_sh = [Fraction(0)] * (L - half - 1) + [theta] + \
        [Fraction(1)] * (n - L)
    y = y_ss + y_pos + y_sh + [Fraction(1)]

    if k is not None:
        # u_k = 0 leaves a_k free; it is set so that r_L = T, which row L's
        # position and second-half rows both need when theta > 0, and
        # r_L - T is affine in a_k
        gaps = []
        for t in (Fraction(0), Fraction(1)):
            w, a, tail = _beta_head(n, L, clipped, k, t)
            gaps.append(w[-1] - tail)
        if gaps[0] == gaps[1]:
            return f"row {k} does not move position row {L}"
        t = gaps[0] / (gaps[0] - gaps[1])
    else:
        t = Fraction(0)
    w, a, tail = _beta_head(n, L, clipped, k, t)
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


def solve_beta(model: LpModel) -> Union[LpSolution, str]:
    """Optimum of ``build_lp_beta``'s program from the structure of its
    solution, in O(n) rational steps, proved by a dual; or, when the proof
    fails, the reason, and the caller runs the simplex.

    The dual (rows as in ``solve_beta_lambda``, with position rows for
    every i and second-half rows for every i > n/2) is a one-parameter
    family in s = L - theta, n/2 < s <= n, 0 <= theta < 1.  Tail rows
    i > L have y_sh_i = 1; row L splits as y_sh_L = theta, y_pos_L =
    1 - theta; the budget has y_bud = 1, so Y = sum_i y_sh_i = n - s.  From
    i = L-1 down to 1,
        u_i = (P_i - [i<=n/2] 2i Y/n) / (n-i),  P_i = sum_{k>i} y_pos_k,
    clipped at 0 for i <= n/2, and y_ss_i = u_i, y_pos_i = 1 - u_i.  Every
    w column is then tight, every b column holds since 2Y/n < 1 = y_bud,
    the a column of a clipped row holds because u_i <= 0 there, and the
    objective is D(s) = (1/n) sum_i y_pos_i - beta.  D was found concave
    in s (second differences at most 8e-16 on 401-point grids at n = 32,
    128 and 512, and <= 0 at the integers, which tests hold).  With the
    clipping fixed, D is affine in theta, so its maximum is at a kink: s
    is an integer (theta = 0), or a row k <= n/2 has u_k = 0.  A float
    bisection picks the best integer L and the rising piece next to it
    (``_beta_dual_argmax``), ``_beta_kink`` finds the kink exactly, and a
    wrong pick fails the certificate.  The maximiser does not depend on
    beta.

    The primal follows from complementary slackness.  With r_i = 1/n -
    sum_{j<i} a_j/(n-j) the residual of position row i, and T the second
    half's gain (2/n) sum_{j<=n/2} a_j j/(n-j): w_i = r_i for i <= L;
    a_i = r_i on rows i <= L that are not clipped, a_i = 0 on clipped ones;
    b = 0.  A row k with u_k = 0 at the kink (always one when theta > 0)
    leaves a_k free, and a_k solves r_L = T, which row L's position and
    second-half rows both need when theta > 0 (at n=4 the kink s = 3 has
    such a row too).  Each tail row i > L gets w_i = a_i = T - g_i, with
    beta spent forwards, g_i = min(left, T - r_i); budget left over after
    row n declines (beta is above what the tail can absorb, about 1/30).

    Nothing above is trusted: the pair is returned only if
    ``_certified_solution`` passes it, and then by weak duality x is
    optimal.  ``structure`` holds L, theta (a string) and the clipped rows,
    those i < L with y_ss_i = 0.  Raises ValueError for a model of another
    family or shape.
    """
    _check_model(model, "beta")
    pair = _beta_pair(model)
    if isinstance(pair, str):
        return pair
    x, y, structure = pair
    return _certified_solution(model, _scaled(x), _scaled(y), structure)


# ---------------------------------------------------------------------------
# The certificate every structural solver shares
# ---------------------------------------------------------------------------

def _check_model(model: LpModel, family: str) -> int:
    """n of ``model``; raises ValueError unless it is a ``family`` model
    (general, beta or beta_lambda) of its builder's shape at that n."""
    meta = model.metadata
    if meta.get("family") != ("general_lb" if family == "general"
                              else family):
        raise ValueError(f"solve_{family} needs a build_lp_{family} model, "
                         f"got family {meta.get('family')!r}")
    n = meta["n"]
    # the beta program keeps the position rows above lambda n, and the
    # second-half rows below it, that the relaxation drops
    num_rows, num_vars = {"general": (3 * n // 4, 3 * n // 2),
                          "beta": (2 * n + 1 + n // 2, 3 * n + n // 2),
                          "beta_lambda": (2 * n + 1, 3 * n + n // 2)}[family]
    if (model.num_rows, model.num_vars) != (num_rows, num_vars):
        raise ValueError(f"a {family.replace('_', '-')} model at n={n} is "
                         f"{num_rows} x {num_vars}, got "
                         f"{model.num_rows} x {model.num_vars}")
    return n


def _scaled(values) -> tuple[list[int], int]:
    """The rationals ``values`` as integers over one scale, the lcm of
    their denominators, and that scale."""
    scale = math.lcm(*{v.denominator for v in values})
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _scaled_sequences(model: LpModel) -> tuple[dict, int]:
    """Each shared sequence of the model's segments, by id and up to the
    longest k a row reads of it, as integers over one scale, and that
    scale: the lcm of every denominator read."""
    scaled = _shared_sequences(model.segments, _scaled)
    scale = math.lcm(*{s for _, s in scaled.values()})
    return {key: [v * (scale // s) for v in ints]
            for key, (ints, s) in scaled.items()}, scale


def _row_shortfall(model: LpModel, xs: list[int], x_scale: int
                   ) -> Fraction:
    """max(0, max_i (b_i - (A x)_i)) for x = xs / x_scale (``_scaled``),
    exact, in O(segments + columns) integer steps: each (shared sequence,
    start column) pair is prefix-summed once, up to the longest k a row
    reads there, and a length-1 segment is read directly, on the model's
    ``_scaled_sequences``."""
    coeffs, scale = _scaled_sequences(model)
    total = scale * x_scale        # total (A x)_i is an integer
    prefix = {}
    worst = Fraction(0)
    for row, b in zip(model.segments, model.rhs):
        ax = 0
        for col, seq, k in row:
            if k == 1:
                ax += coeffs[id(seq)][0] * xs[col]
            elif k:
                sums = prefix.setdefault((id(seq), col), [0])
                if len(sums) <= k:
                    c, acc = coeffs[id(seq)], sums[-1]
                    for t in range(len(sums) - 1, k):
                        acc += c[t] * xs[col + t]
                        sums.append(acc)
                ax += sums[k]
        if ax * b.denominator < b.numerator * total:
            worst = max(worst, b - Fraction(ax, total))
    return worst


def _column_excess(model: LpModel, ys: list[int], y_scale: int
                   ) -> Fraction:
    """max(0, max_j ((y A)_j - c_j)) for y = ys / y_scale (``_scaled``),
    exact, in O(segments + columns) integer steps: per (shared sequence,
    start column) pair, y is summed over the rows that read it by k, then
    suffix-summed, so that column col+t gets coeffs[t] times the y of the
    rows reading past t; a length-1 segment is read directly.  Column j's
    sum is num_j / den_j over y's scale, with den_j the lcm of the
    denominators it has read: each product is one of y's long integers
    times a coefficient's short ones, where one scale for the coefficients
    too would multiply two long ones."""
    num, den = [0] * model.num_vars, [1] * model.num_vars

    def add(j, c, v):            # column j's sum += c v
        q, d = c.denominator, den[j]
        if q == d:
            num[j] += c.numerator * v
        else:
            m = math.lcm(q, d)
            num[j] = num[j] * (m // d) + c.numerator * (m // q) * v
            den[j] = m

    by_k = {}
    for row, v in zip(model.segments, ys):
        if not v:
            continue
        for col, seq, k in row:
            if k == 1:
                add(col, seq[0], v)
            elif k:
                sums = by_k.setdefault((id(seq), col), (seq, {}))[1]
                sums[k] = sums.get(k, 0) + v
    for (_, col), (seq, sums) in by_k.items():
        above = 0
        for t in range(max(sums) - 1, -1, -1):
            above += sums.get(t + 1, 0)
            add(col + t, seq[t], above)
    worst = Fraction(0)
    for v, d, c in zip(num, den, model.objective):
        if v * c.denominator > c.numerator * d * y_scale:
            worst = max(worst, Fraction(v, d * y_scale) - c)
    return worst


def _certified_solution(model: LpModel, x: tuple[list[int], int],
                        y: tuple[list[int], int], structure: dict
                        ) -> Union[LpSolution, str]:
    """The structural solution x when x and y prove each other optimal,
    else the first failed check.  x and y come as integers over one scale
    each, the form ``_scaled`` returns, and every check reads those.  Each
    check is exact, on the model's own objective, rhs and segments: x >= 0,
    y >= 0, c.x == b.y, A x >= b (``_row_shortfall``) and y A <= c
    (``_column_excess``).  x's Fractions and floats are made only for a
    pair that passes."""
    (xs, x_scale), (ys, y_scale) = x, y
    if any(v < 0 for v in xs):
        return "negative primal entry"
    negative = next((r for r, v in enumerate(ys) if v < 0), None)
    if negative is not None:
        return f"negative dual on {model.row_names[negative]}"
    cs, c_scale = _scaled(model.objective)
    bs, b_scale = _scaled(model.rhs)
    primal = Fraction(sum(c * v for c, v in zip(cs, xs) if c),
                      c_scale * x_scale)
    dual = Fraction(sum(b * v for b, v in zip(bs, ys) if b),
                    b_scale * y_scale)
    if primal != dual:
        return f"duality gap {float(primal - dual):.3g}"
    shortfall = _row_shortfall(model, xs, x_scale)
    if shortfall:
        return f"primal residual {float(shortfall):.3g}"
    excess = _column_excess(model, ys, y_scale)
    if excess:
        return f"dual residual {float(excess):.3g}"
    zero = Fraction(0)
    # int / int is correctly rounded, as float() of the Fraction is
    return LpSolution("optimal", float(primal + model.constant),
                      np.array([v / x_scale for v in xs]), 0.0, 0,
                      exact=[Fraction(v, x_scale) if v else zero
                             for v in xs],
                      structure=structure, solver="structure")


# ---------------------------------------------------------------------------
# Two-phase primal simplex
# ---------------------------------------------------------------------------

def _pivot(tab: np.ndarray, basis: np.ndarray, r: int, c: int):
    """Make column c basic in row r.  The rank-one update touches only the
    rows with a nonzero entry in column c (the cost row included) and the
    columns with a nonzero entry in row r; everything else is unchanged."""
    prow = tab[r]
    prow /= prow[c]
    rows = np.flatnonzero(tab[:, c])
    rows = rows[rows != r]
    cols = np.flatnonzero(prow)
    tab[np.ix_(rows, cols)] -= np.outer(tab[rows, c], prow[cols])
    basis[r] = c


def _leaving_row(tab: np.ndarray, basis: np.ndarray, c: int) -> int:
    """Ratio test for entering column c: among rows with a positive entry,
    the smallest rhs/entry, ties to the lowest basis index; -1 if none."""
    col = tab[:-1, c]
    rows = np.flatnonzero(col > PIVOT_TOL)
    if rows.size == 0:
        return -1
    ratios = tab[rows, -1] / col[rows]
    tied = rows[ratios == ratios.min()]
    return int(tied[np.argmin(basis[tied])])


def _iterate(tab: np.ndarray, basis: np.ndarray, ncols: int,
             max_iter: int) -> tuple[str, int]:
    """Run simplex iterations on a tableau whose last row holds reduced
    costs (to be driven non-negative) and last column the rhs."""
    it = degenerate = 0
    while True:
        cost = tab[-1, :ncols]
        if degenerate < DEGENERATE_LIMIT:
            entering = int(np.argmin(cost))
            if cost[entering] >= -PIVOT_TOL:
                return "optimal", it
        else:
            improving = np.flatnonzero(cost < -PIVOT_TOL)
            if improving.size == 0:
                return "optimal", it
            entering = int(improving[0])
        r = _leaving_row(tab, basis, entering)
        if r < 0:
            return "unbounded", it
        step = tab[r, -1] / tab[r, entering]
        degenerate = degenerate + 1 if step <= PIVOT_TOL else 0
        _pivot(tab, basis, r, entering)
        it += 1
        if it > max_iter:
            raise RuntimeError("simplex iteration limit exceeded")


def _float_matrix(model: LpModel) -> np.ndarray:
    """A in floats, one conversion per shared sequence; 0 becomes +0.0."""
    floats = _shared_sequences(model.segments, lambda seq: np.array(
        [c.numerator / c.denominator if c else 0.0 for c in seq]))
    matrix = np.zeros((model.num_rows, model.num_vars))
    for r, row in enumerate(model.segments):
        for col, coeffs, k in row:
            matrix[r, col:col + k] = floats[id(coeffs)][:k]
    return matrix


def simplex_solve(model: LpModel) -> LpSolution:
    """Two-phase dense primal simplex.

    Each >= row gets a surplus variable.  A row with rhs <= 0 is negated
    and starts with its surplus basic; each row with positive rhs gets an
    artificial variable, which phase 1 drives out.  Artificial columns are
    never stored: one that leaves the basis cannot re-enter, and phase 1
    still reaches 0 on every feasible LP.  Phase 2 minimizes the true
    objective.  The reported objective includes the model constant.
    """
    m, nv = model.num_rows, model.num_vars
    A = _float_matrix(model)
    bvec = np.array([float(v) for v in model.rhs])
    cvec = np.array([float(v) for v in model.objective])

    # standard form [A | -I] x = b; rows with b <= 0 flipped to -b >= 0
    ncols = nv + m
    tab = np.zeros((m + 1, ncols + 1))
    tab[:m, :nv] = A
    tab[np.arange(m), nv + np.arange(m)] = -1.0
    tab[:m, -1] = bvec
    flipped = np.flatnonzero(bvec <= 0)
    tab[flipped] *= -1.0
    # an artificial in row r has index ncols + r, above every real column
    basis = ncols + np.arange(m)
    basis[flipped] = nv + flipped
    max_iter = 10000 * (m + ncols)

    # phase 1: minimize the artificial sum
    artificial = np.flatnonzero(bvec > 0)
    tab[-1] = -tab[artificial].sum(axis=0)
    status, it1 = _iterate(tab, basis, ncols, max_iter)
    if status != "optimal" or tab[-1, -1] < -FEAS_TOL:
        return LpSolution("infeasible", math.nan, None, math.nan, it1,
                          solver=f"simplex, {it1} pivots")

    # drive any leftover artificial out of the basis or drop its row
    keep = []
    for r in range(m):
        if basis[r] >= ncols:
            nonzero = np.flatnonzero(np.abs(tab[r, :ncols]) > PIVOT_TOL)
            if nonzero.size:
                _pivot(tab, basis, r, int(nonzero[0]))
                keep.append(r)
            # else: redundant row, drop it
        else:
            keep.append(r)
    if len(keep) < m:
        tab = tab[keep + [m]]
        basis = basis[keep]

    # phase 2: true objective
    tab[-1] = 0.0
    tab[-1, :nv] = cvec
    tab[-1] -= tab[-1, basis] @ tab[:-1]
    status, it2 = _iterate(tab, basis, ncols, max_iter)
    if status == "unbounded":
        return LpSolution("unbounded", -math.inf, None, math.nan, it1 + it2,
                          solver=f"simplex, {it1 + it2} pivots")

    x = np.zeros(ncols)
    x[basis] = tab[:-1, -1]
    x = x[:nv]
    violation = float(np.max(np.maximum(bvec - A @ x, 0.0), initial=0.0))
    obj = float(cvec @ x) + float(model.constant)
    return LpSolution("optimal", obj, x, violation, it1 + it2,
                      solver=f"simplex, {it1 + it2} pivots")


def solve(model: LpModel) -> LpSolution:
    """Solve a built model with its family's solver: ``solve_general`` for
    general, ``solve_beta`` for beta and ``solve_beta_lambda`` for
    beta-lambda, each with ``simplex_solve`` when it declines, and
    ``simplex_solve`` for a model of no family.  ``solver`` names the one
    that served, and a decline's reason.  A decline is also written to
    stderr, with the model's size, before the dense simplex starts."""
    family = model.metadata.get("family")
    # built per call, so that a solver rebound on the module serves
    structural = {"general_lb": solve_general, "beta": solve_beta,
                  "beta_lambda": solve_beta_lambda}.get(family)
    if structural is None:
        return simplex_solve(model)
    solution = structural(model)
    if isinstance(solution, LpSolution):
        return solution
    print(f"structure declined: {solution}; dense simplex on "
          f"{model.num_rows} x {model.num_vars}", file=sys.stderr)
    fallback = simplex_solve(model)
    fallback.solver += f" (structure declined: {solution})"
    return fallback


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

# the closed form refuses lambda at or below this; it is not where the
# closed form starts to equal the LP optimum, which is (3 - sqrt 2)/2 in the
# limit (see closed_form_beta_lambda)
LAMBDA_THRESHOLD = 9 - math.sqrt(68)


@dataclass(frozen=True)
class ClosedFormBound:
    exact: float        # finite-n structured objective (clamped at 0)
    asymptotic: float   # n -> infinity lower bound


def closed_form_beta_lambda(n: int, lam, beta) -> ClosedFormBound:
    """The relaxed LP's objective at its structured feasible point, and the
    asymptotic limit of that value.

    exact = sum_{i<=lam n}(n-i)/((n-1)n) + (1-lam) n (n/2+1)/(2(n-1)n) - beta,
    clamped below at 0; asymptotic = 1/2 - (1-lam)^2/2 + (1-lam)/4 - beta.
    ``exact`` is the objective of the *unclipped* structured point, the
    primal of ``solve_beta_lambda`` with no row clipped (a_i = (n-i)/((n-1)n)
    for i < lam n).  While beta is below that point's tail total
    (n - lam n) T, the point is feasible, so ``exact`` is an upper bound on
    the LP optimum.  It is the optimum where the binding dual clips no
    row: from lam = (3 - sqrt 2)/2 ~ 0.7929 in the limit, since u on
    step-split row n/2 tends to (1 - 4(1-lam)^2)/2 - 2(1-lam), negative
    below it (at n=1024, from lam n = 812 on).  Below, the certified
    optimum clips rows and lies under the closed form: by 8.2e-4 at n=64,
    lam = 49/64, and by 1.1e-3 at n=1024, lam = 772/1024 (HiGHS agrees).
    For a larger beta the point can spend only the tail's total, so the
    closed form falls below the optimum (0.44375 against 0.4875 at n=16,
    lam = 13/16, beta = 1/10).
    Refuses lam at or below the threshold 9 - sqrt(68) or above 1, and a
    negative beta.
    """
    _check_n(n)
    lam = _to_fraction(lam)
    beta = _check_beta(beta)
    if float(lam) <= LAMBDA_THRESHOLD:
        raise ValueError(
            f"lambda = {lam} is not above the threshold 9 - sqrt(68) "
            f"~ {LAMBDA_THRESHOLD:.6f}; the closed form does not apply")
    lam, lam_n = _check_lambda(lam, n)
    # sum_{i<=L}(n-i)/((n-1)n) = L(2n - L - 1)/(2(n-1)n), L = lam n
    exact = (Fraction(lam_n * (2 * n - lam_n - 1), 2 * (n - 1) * n)
             + (1 - lam) * n * Fraction(n // 2 + 1, 2 * (n - 1) * n) - beta)
    exact = max(exact, Fraction(0))
    one_minus = 1 - lam
    asym = Fraction(1, 2) - one_minus ** 2 / 2 + one_minus / 4 - beta
    return ClosedFormBound(float(exact), float(asym))


def closed_form_general(n: int) -> float:
    """1/24 + (89 n^2/32 - 15 n/8) / (6 (n-1) n)."""
    _check_n(n)
    if n < 8:
        raise ValueError(f"closed form requires n >= 8, got {n}")
    val = Fraction(1, 24) + (Fraction(89 * n * n, 32) - Fraction(15 * n, 8)) \
        / (6 * (n - 1) * n)
    return float(val)


GENERAL_LIMIT = Fraction(1, 24) + Fraction(89, 192)   # = 97/192

# the two curves 1/2 + beta/2 and 0.5312 - beta cross here
COMBINED_BETA_STAR = float(2 * Fraction(312, 10000) / 3)


def combined_secondorder_bound() -> float:
    """max over beta >= 0 of min(1/2 + beta/2, 0.5312 - beta) = 0.5104."""
    return float(Fraction(1, 2) + Fraction(312, 10000) / 3)
