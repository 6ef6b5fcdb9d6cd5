"""Stationary distributions, per-class stationary laws and absorption
probabilities."""

from dataclasses import dataclass
from fractions import Fraction

from znrank.errors import MaxIterExceeded, NotIrreducible, SingularSystem
from znrank.graph import classify_states, is_irreducible
from znrank.linalg import solve_exact, solve_float
from znrank.rational import EXACT, FLOAT


@dataclass(frozen=True)
class Distribution:
    values: tuple
    numeric_mode: str = EXACT

    def __post_init__(self):
        if self.numeric_mode == EXACT:
            vals = tuple(Fraction(x) for x in self.values)
            if any(x < 0 for x in vals):
                raise ValueError("negative probability")
            if sum(vals) != 1:
                raise ValueError(f"probabilities sum to {sum(vals)}, not 1")
        else:
            vals = tuple(0.0 if -1e-12 < float(x) < 0 else float(x) for x in self.values)
            if any(x < 0 for x in vals):
                raise ValueError("negative probability")
            if abs(sum(vals) - 1.0) > 1e-9:
                raise ValueError(f"probabilities sum to {sum(vals)!r}, not 1")
        object.__setattr__(self, "values", vals)

    @property
    def n(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def to_float(self):
        if self.numeric_mode == FLOAT:
            return self
        return Distribution(tuple(float(x) for x in self.values), FLOAT)


def linf(xs, ys):
    return max(abs(x - y) for x, y in zip(xs, ys))


def _gth(rows, zero, one):
    """Stationary law of the chain with the given rows by Grassmann-Taksar-
    Heyman state reduction (Operations Research 1985).

    States are eliminated from the last index down. Each step censors the
    chain to the lower-indexed states; the pivot is the eliminated state's
    mass to those states, so no step ever subtracts and float results are
    entrywise relatively accurate (O'Cinneide, Numer. Math. 1993). The same
    code runs over Fraction and float: only `zero` and `one` differ. A zero
    pivot means more than one closed class and raises NotIrreducible.
    """
    n = len(rows)
    a = [list(row) for row in rows]
    scaled = [()] * n  # scaled[k]: (i, a[i][k] / pivot) over i < k, nonzero
    for k in range(n - 1, 0, -1):
        lower = [(j, x) for j, x in enumerate(a[k][:k]) if x]
        pivot = sum((x for _, x in lower), zero)
        if not pivot:
            raise NotIrreducible("zero pivot in state reduction: the chain has more than one closed class")
        col = []
        for i in range(k):
            row_i = a[i]
            c = row_i[k]
            if c:
                f = c / pivot
                col.append((i, f))
                for j, x in lower:  # also updates a[i][i], which is never read
                    row_i[j] += f * x
        scaled[k] = col
    x = [one] + [zero] * (n - 1)
    for k in range(1, n):
        x[k] = sum((x[i] * f for i, f in scaled[k]), zero)
    total = sum(x, zero)
    return [v / total for v in x]


def stationary_direct(p, known_irreducible=False):
    """Unique stationary law of an irreducible chain by GTH state reduction.

    Pass known_irreducible=True only when the caller has already
    established irreducibility (a closed class of a partition is
    irreducible); the check is skipped then.
    """
    if not known_irreducible and not is_irreducible(p):
        raise NotIrreducible("stationary_direct needs an irreducible chain")
    if p.numeric_mode == EXACT:
        x = _gth(p.rows, Fraction(0), Fraction(1))
    else:
        x = _gth(p.rows, 0.0, 1.0)
    return Distribution(tuple(x), p.numeric_mode)


def stationary_power(p, tol=1e-12, max_iter=100000):
    """Stationary law by averaged power iteration, in floating point.

    Each iterate is averaged with its one-step image (x <- (x + xP)/2),
    which removes periodicity while keeping the stationary vector fixed, so
    periodic chains converge too. The residual is measured against P itself.
    Raises MaxIterExceeded carrying the last iterate and residual.
    """
    pf = p.to_float()
    n = pf.n
    rows = pf.rows
    x = [1.0 / n] * n

    def step(vec):
        out = [0.0] * n
        for i, xi in enumerate(vec):
            if xi != 0.0:
                row = rows[i]
                for j in range(n):
                    out[j] += xi * row[j]
        return out

    residual = None
    for _ in range(max_iter):
        px = step(x)
        residual = sum(abs(a - b) for a, b in zip(px, x))
        if residual <= tol:
            s = sum(x)
            return Distribution(tuple(v / s for v in x), FLOAT)
        x = [(a + b) / 2.0 for a, b in zip(x, px)]
        s = sum(x)
        x = [v / s for v in x]
    raise MaxIterExceeded(
        f"no convergence to {tol} within {max_iter} iterations (residual {residual})",
        last_iterate=tuple(x),
        residual=residual,
    )


def class_stationary(p, part):
    """Stationary law of P restricted to each closed class, embedded into
    the full state space with zeros elsewhere."""
    n = p.n
    zero = Fraction(0) if p.numeric_mode == EXACT else 0.0
    out = []
    for cls in part.closed_classes:
        sub = p.submatrix(list(cls))
        pi = stationary_direct(sub, known_irreducible=True)  # a closed class is irreducible
        full = [zero] * n
        for local, state in enumerate(cls):
            full[state] = pi[local]
        out.append(Distribution(tuple(full), p.numeric_mode))
    return tuple(out)


@dataclass(frozen=True)
class AbsorptionTable:
    transient: tuple
    rows: tuple  # rows[t][k] = probability transient state t is absorbed in class k
    numeric_mode: str = EXACT

    def row_for(self, state):
        return self.rows[self.transient.index(state)]


def absorption_probabilities(p, part):
    """Probability that each transient state is absorbed into each closed
    class: solve (I - P_TT) A = P_(T -> class)."""
    tr = list(part.transient)
    if not tr:
        return AbsorptionTable((), (), p.numeric_mode)
    exact = p.numeric_mode == EXACT
    one = Fraction(1) if exact else 1.0
    zero = Fraction(0) if exact else 0.0
    a = [[(one if i == j else zero) - p.entry(s, t) for j, t in enumerate(tr)] for i, s in enumerate(tr)]
    b = [[sum((p.entry(s, j) for j in cls), zero) for cls in part.closed_classes] for s in tr]
    solve = solve_exact if exact else solve_float
    try:
        x = solve(a, b)
    except SingularSystem:
        raise SingularSystem("some transient state cannot reach any closed class") from None
    return AbsorptionTable(tuple(tr), tuple(tuple(row) for row in x), p.numeric_mode)


__all__ = [
    "AbsorptionTable",
    "Distribution",
    "absorption_probabilities",
    "class_stationary",
    "classify_states",
    "linf",
    "stationary_direct",
    "stationary_power",
]
