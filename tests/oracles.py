"""Independent reference computations used only by the tests.

The eigenvalue oracle goes through the characteristic polynomial
(Faddeev-LeVerrier) and a derivative-chain bisection root finder, with
inverse iteration for eigenvectors; it shares no code with the package's
Householder-QL solver.  Intended for dimension <= 4 with (at most doubly)
degenerate spectra.  ``sturm_count`` counts the eigenvalues below a point
of a zero-diagonal symmetric tridiagonal matrix exactly, in rational
arithmetic, at any dimension, ``ring_count`` does the same for an odd ring
of purely imaginary couplings such as those ``periodic_rings`` lists for
the periodic pre-correlation matrix, and ``jacobi_eigenvector_moduli`` gives the
eigenvector moduli of the finite parity blocks from their orthogonal
polynomials; ``zero_eigenvalue_count`` is the exact kernel dimension of
the pre-correlation matrix from the lengths of its chains and rings, and
``fix_phase_by_column`` the eigenvector phase convention column by column.
``dense_dekker_commutator`` is the full-width Dekker row
loop that the package's row-sparse commutator must match byte for byte,
and ``correlation_value`` the one-state form of the spectrum's
correlation column.  ``csv_reference`` and
``polyline_reference`` are the row-by-row writers that the package's
column-at-a-time CSV and SVG text must match byte for byte.  ``hermite``,
``hermite_zeros``, ``schrodinger_residual``, ``eigenfunction_residual`` and
``sign_classification`` check the package's wavefunctions, density peaks,
eigenfunctions and sign classes from outside it.
"""

import math
from fractions import Fraction

import numpy as np

from quantumtoss.correlation import CorrelationReport
from quantumtoss.errors import InputError
from quantumtoss.numerics import as_int
from quantumtoss.reports import format_field
from quantumtoss.roundwaves import (
    HERMITE_N_MAX,
    ORDERINGS,
    _as_grid,
    correlation_eigenfunction,
    psi,
)

_SPLIT = 134217729.0  # 2**27 + 1


def _split(x):
    hi = _SPLIT * x
    hi = hi - (hi - x)
    return x, hi, x - hi


def _two_product(x, y):
    (xv, xh, xl), (yv, yh, yl) = x, y
    p = xv * yv
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def dense_dekker_commutator(a, b):
    """a @ b - b @ a by the Dekker row loop summed over every column.

    The full-width form of ``numerics.commutator``: same splitting, same
    two-products, same pairwise grouping and ``axis=0`` sums, but each row
    runs over all n columns, zeros included, at O(n^3) cost.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    n = a.shape[0]
    ar, ai, br, bi = (_split(x.copy()) for x in (a.real, a.imag, b.real, b.imag))
    out = np.empty((n, n), dtype=complex)
    for i in range(n):
        ari, aii, bri, bii = (tuple(x[i, :, None] for x in m) for m in (ar, ai, br, bi))
        p1, e1 = _two_product(ari, br)
        p2, e2 = _two_product(aii, bi)
        p5, e5 = _two_product(bri, ar)
        p6, e6 = _two_product(bii, ai)
        re = np.sum((p1 - p5) + (p6 - p2), axis=0) + np.sum((e1 - e5) + (e6 - e2), axis=0)
        p3, e3 = _two_product(ari, bi)
        p4, e4 = _two_product(aii, br)
        p7, e7 = _two_product(bri, ai)
        p8, e8 = _two_product(bii, ar)
        im = np.sum((p3 - p7) + (p4 - p8), axis=0) + np.sum((e3 - e7) + (e4 - e8), axis=0)
        out[i, :] = re + 1j * im
    return out


def char_poly(m):
    """Coefficients of det(lambda I - M), descending powers, real parts.

    Faddeev-LeVerrier: A_1 = M, c_1 = -tr A_1,
    A_k = M (A_{k-1} + c_{k-1} I), c_k = -tr(A_k) / k.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    coeffs = [1.0]
    a = m.copy()
    c = -np.trace(a)
    coeffs.append(c)
    for k in range(2, n + 1):
        a = m @ (a + c * np.eye(n))
        c = -np.trace(a) / k
        coeffs.append(c)
    out = []
    for c in coeffs:
        assert abs(complex(c).imag) < 1e-9 * (1 + abs(c))
        out.append(float(complex(c).real))
    return out


def poly_eval(coeffs, x):
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def poly_derivative(coeffs):
    deg = len(coeffs) - 1
    return [c * (deg - i) for i, c in enumerate(coeffs[:-1])]


def _bisect_poly(coeffs, lo, hi):
    flo = poly_eval(coeffs, lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fmid = poly_eval(coeffs, mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def all_real_roots(coeffs):
    """All roots of a polynomial known to have only real roots, ascending.

    Brackets come from the recursively computed critical points plus the
    Cauchy bound.  A critical point where the polynomial itself (nearly)
    vanishes is a double root.
    """
    deg = len(coeffs) - 1
    if deg == 0:
        return []
    if deg == 1:
        return [-coeffs[1] / coeffs[0]]
    crit = sorted(all_real_roots(poly_derivative(coeffs)))
    bound = 1.0 + max(abs(c / coeffs[0]) for c in coeffs[1:])
    pts = [-bound] + crit + [bound]
    scale = max(1.0, max(abs(c) for c in coeffs))
    roots = []
    for c in crit:
        if abs(poly_eval(coeffs, c)) <= 1e-7 * scale:
            roots.extend([c, c])
    for a, b in zip(pts, pts[1:]):
        fa = poly_eval(coeffs, a)
        fb = poly_eval(coeffs, b)
        if abs(fa) <= 1e-7 * scale or abs(fb) <= 1e-7 * scale:
            continue  # a double root sits on this endpoint
        if (fa > 0) != (fb > 0):
            roots.append(_bisect_poly(coeffs, a, b))
    roots.sort()
    assert len(roots) == deg, f"found {len(roots)} of {deg} roots"
    return roots


def eigenvalues_oracle(m):
    """Ascending eigenvalues of a small Hermitian matrix via its char poly."""
    return np.array(all_real_roots(char_poly(m)))


def eigenvector_oracle(m, eigenvalue):
    """Unit eigenvector by shifted inverse iteration (simple eigenvalues)."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    shift = eigenvalue + 1e-9 * (1.0 + abs(eigenvalue))
    vec = np.ones(n, dtype=complex) / np.sqrt(n)
    for _ in range(3):
        vec = np.linalg.solve(m - shift * np.eye(n), vec)
        vec = vec / np.linalg.norm(vec)
    return vec


def scan_density_maxima(density, lo, hi, step=1e-4):
    """Local maxima of a sampled function with parabolic refinement.

    A crest sampled symmetrically yields two exactly equal neighbours, so
    the left-biased comparison (strict against the left, non-strict against
    the right) flags each plateau exactly once.
    """
    samples = int(round((hi - lo) / step)) + 1
    xs = np.linspace(lo, hi, samples)
    ys = density(xs)
    inner = (ys[1:-1] > ys[:-2]) & (ys[1:-1] >= ys[2:])
    out = []
    for i in np.nonzero(inner)[0] + 1:
        denom = ys[i - 1] - 2.0 * ys[i] + ys[i + 1]
        offset = 0.5 * (ys[i - 1] - ys[i + 1]) / denom if denom != 0 else 0.0
        out.append(xs[i] + offset * (xs[1] - xs[0]))
    return np.array(out)


def correlation_value(state, pi1, pi2, pc):
    """<PC> - <pi1><pi2> in a state, by plain matrix-vector products."""
    s = np.asarray(state, dtype=complex)

    def mean(m):
        return (s.conj() @ (np.asarray(m) @ s)).real

    return float(mean(pc) - mean(pi1) * mean(pi2))


def fix_phase_by_column(vecs):
    """The eigenvector phase convention, one column at a time.

    In each column the first component above 1e-8 of the column's largest
    modulus is rotated to phase 0, by the factor conj(r) / |r| of that
    component r; the package's ``numerics._fix_phase`` must match it bit
    for bit on the whole matrix at once.
    """
    out = np.array(vecs, dtype=complex)
    for k in range(out.shape[1]):
        col = out[:, k]
        ref = col[int(np.argmax(np.abs(col) > 1e-8 * float(np.max(np.abs(col)))))]
        out[:, k] = col * (ref.conjugate() / abs(ref))
    return out


def sturm_count(squared_couplings, x):
    """Exact number of eigenvalues below x of a zero-diagonal tridiagonal matrix.

    The matrix is real symmetric with couplings b_i, given squared as
    Fractions; x is any rational.  The count is the number of negative
    pivots of the LDL^T factorization of T - x I (Sylvester's law of
    inertia): q_0 = -x, q_i = -x - b_{i-1}^2 / q_{i-1}, all in exact
    arithmetic.  A zero pivot is read as +0, which makes the next pivot
    -inf (None here) and the one after it -x again.
    """
    x = Fraction(x)
    count, pivot = 0, -x
    for b2 in squared_couplings:
        count += pivot is None or pivot < 0
        if pivot is None:
            pivot = -x
        elif pivot == 0:
            pivot = None
        else:
            pivot = -x - b2 / pivot
    return count + (pivot is None or pivot < 0)


def zero_eigenvalue_count(rounds_max, mode):
    """Exact number of zero eigenvalues of the pre-correlation matrix PC.

    PC couples only round states two apart, plus the periodic wrap entries,
    so its graph falls into chains and rings: in finite mode two chains of
    lengths ceil((N+1)/2) and floor((N+1)/2), in periodic mode two rings of
    length (N+1)/2 at odd N and one ring of length N+1 at even N.  Each
    component has simple eigenvalues and a spectrum symmetric under
    negation (PC is purely imaginary and Hermitian), so it has exactly one
    zero eigenvalue if its length is odd and none if it is even.
    """
    dim = rounds_max + 1
    if mode == "finite":
        lengths = ((dim + 1) // 2, dim // 2)
    elif dim % 2 == 0:
        lengths = (dim // 2, dim // 2)
    else:
        lengths = (dim,)
    return sum(length % 2 for length in lengths)


def periodic_rings(rounds_max):
    """The rings of the periodic pre-correlation matrix, each as 4|t|^2 of its couplings.

    PC = -i (a_plus^2 - a_minus^2) / 2 couples n to n + 2 with |t|^2 =
    (n+1)(n+2)/4, and the wraps N - 1 to 0 with N/4 and N to 1 with 1/4.
    Each ring is walked along its cycle from its smallest state: the
    coupling i joins the states i - 1 and i of the walk, and the last one
    closes the ring.  One ring of length N + 1 at even N, two of length
    (N + 1)/2 at odd N.
    """
    n, rings, seen = rounds_max, [], set()
    for start in (0, 1):
        if start in seen:
            continue
        couplings, state = [], start
        while state != start or not couplings:
            seen.add(state)
            if state + 2 <= n:
                couplings.append((state + 1) * (state + 2))
                state += 2
            else:
                couplings.append(n if state == n - 1 else 1)
                state = 0 if state == n - 1 else 1
        rings.append(couplings)
    return rings


def ring_count(couplings, x):
    """Exact number of eigenvalues below x of an odd ring of purely imaginary couplings.

    The ring's matrix A has zero diagonal and couplings t_i with 4|t_i|^2 =
    ``couplings[i - 1]`` (integers, in cycle order, the last one closing the
    ring); x is any rational.  The product of an odd number of purely
    imaginary entries is imaginary, so the cross term of the ring
    determinant is 0 and det(A - x I) = D_L - |t_L|^2 D_inner.  Here D_k =
    -x D_{k-1} - |t_{k-1}|^2 D_{k-2} are the chain minors along the cycle
    and D_inner the same recurrence over the states 1 .. L-2.  These are the
    leading principal minors of A - x I, so their sign changes count its
    negative eigenvalues (Jacobi's rule).  For x = p/q each minor is taken
    times (2q)^k, which keeps it an integer of the same sign.  Returns None
    if a minor is 0: then x must move.
    """
    if len(couplings) % 2 == 0:
        raise ValueError(f"ring length {len(couplings)} is even: its cross term does not vanish")
    x = Fraction(x)
    p2, q2 = 2 * x.numerator, x.denominator ** 2

    def chain(cs):  # the scaled minors of the chain with couplings cs, sizes 0 .. len(cs) + 1
        minors = [1, -p2]
        for c in cs:
            minors.append(-p2 * minors[-1] - c * q2 * minors[-2])
        return minors

    minors = chain(couplings[:-1])
    minors[-1] -= couplings[-1] * q2 * chain(couplings[1:-2])[-1]
    if 0 in minors:
        return None
    return sum((a < 0) != (b < 0) for a, b in zip(minors, minors[1:]))


def jacobi_eigenvector_moduli(a, size, x):
    """Moduli of the unit eigenvector of J(a) at each eigenvalue in ``x``, one column each.

    J(a) is the size x size Jacobi matrix of the Meixner-Pollaczek
    polynomials P_k^(a)(x; pi/2): zero diagonal and couplings b_k =
    sqrt((k+1)(k+2a))/2.  At an eigenvalue x its eigenvector is (p_0(x), ...,
    p_{size-1}(x)) up to scale, with p_0 = 1 and the three-term recurrence
    b_k p_{k+1} = x p_k - b_{k-1} p_{k-1}; no eigensolver is involved.  At
    size 256 and the largest |x| an entry reaches 3e166, whose square
    overflows the norm, so a column is scaled back to 1 whenever an entry
    passes 1e100.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    k = np.arange(size - 1)
    b = np.sqrt((k + 1) * (k + 2 * a)) / 2
    p = np.zeros((size, x.size))
    p[0] = 1.0
    for j in range(size - 1):
        p[j + 1] = (x * p[j] - (b[j - 1] * p[j - 1] if j else 0.0)) / b[j]
        big = np.abs(p[j + 1]) > 1e100
        p[: j + 2, big] /= np.abs(p[j + 1, big])
    return np.abs(p) / np.linalg.norm(p, axis=0)


def hermite(n: int, xi):
    """Physicists' Hermite polynomial H_n by the forward recurrence.

    H_0 = 1, H_1 = 2 xi, H_{k+1} = 2 xi H_k - 2 k H_{k-1}.  Accepts scalars
    or arrays; orders above HERMITE_N_MAX are rejected, and so is a grid on
    which the raw polynomial values overflow (psi stays bounded there).
    """
    as_int(n, "n", 0, HERMITE_N_MAX)
    x = _as_grid(xi)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    h_prev = np.ones_like(x)
    if n == 0:
        return float(h_prev[0]) if scalar else h_prev
    h = 2.0 * x
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        for k in range(1, n):
            h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
    if not np.all(np.isfinite(h)):
        big = float(np.max(np.abs(x)))
        raise InputError(f"H_{n} overflows double precision on a grid reaching |xi| = {big:.6g}")
    return float(h[0]) if scalar else h


def hermite_zeros(n: int) -> np.ndarray:
    """The n zeros of H_n, ascending: the eigenvalues of the Jacobi matrix with
    off-diagonal sqrt(k/2), k = 1 .. n-1 (Golub & Welsch, 1969), from
    numpy.linalg.eigvalsh."""
    off = np.sqrt(np.arange(1, n) / 2.0)
    return np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))


def schrodinger_residual(n: int, grid, h: float) -> float:
    """Worst defect of psi_n in the round eigenvalue equation on ``grid``.

    Returns max |(-D2_h psi + xi^2 psi) - (2n + 1) psi| with D2_h the
    central second difference; second-order small in h.  The grid must stay
    within +-(sqrt(2n + 1) + 6), beyond which the density is pure underflow.
    """
    as_int(n, "n", 0, HERMITE_N_MAX)
    x = _as_grid(grid)
    bound = math.sqrt(2.0 * n + 1.0) + 6.0
    if x.size == 0 or float(np.max(np.abs(x))) > bound + 1e-9:
        raise InputError(f"grid must lie within [-{bound}, {bound}]")
    d2 = (psi(n, x + h) - 2.0 * psi(n, x) + psi(n, x - h)) / (h * h)
    wave = psi(n, np.atleast_1d(x))
    resid = -d2 + np.atleast_1d(x) ** 2 * wave - (2.0 * n + 1.0) * wave
    return float(np.max(np.abs(resid)))


def eigenfunction_residual(lam: float, ordering: str, grid) -> float:
    """Central-difference defect of xi^s in its first-order equation.

    Returns max over interior points of |i (xi psi' + c psi) - lam psi|
    with c the ordering's additive constant and psi' the centered
    difference; second-order small in the grid step.
    """
    x = np.atleast_1d(_as_grid(grid))
    values = correlation_eigenfunction(lam, ordering, x)
    if x.size < 3:
        raise InputError("need at least 3 grid points for the residual")
    dpsi = (values[2:] - values[:-2]) / (x[2:] - x[:-2])
    lhs = 1j * (x[1:-1] * dpsi + ORDERINGS[ordering] * values[1:-1])
    return float(np.max(np.abs(lhs - float(lam) * values[1:-1])))


def sign_classification(report: CorrelationReport) -> tuple[int, ...]:
    """Sign classes of the report's rows, in row order (taken at kappa = 1)."""
    return tuple(row.sign_class for row in report.rows)


def _quote(field):
    if "," in field or '"' in field or "\n" in field:
        return '"' + field.replace('"', '""') + '"'
    return field


def csv_reference(table):
    """The CSV document of ``table`` one row at a time, RFC-4180 quoting.

    A numpy array column is formatted by the per-row template "%.17g"; any
    other field by ``format_field``.
    """
    columns = [
        col.tolist() if isinstance(col, np.ndarray) else [_quote(format_field(v)) for v in col]
        for col in table.values()
    ]
    template = ",".join("%.17g" if isinstance(c, np.ndarray) else "%s" for c in table.values())
    lines = [",".join(_quote(h) for h in table)]
    lines.extend(template % row for row in zip(*columns))
    return "\n".join(lines) + "\n"


def polyline_reference(xs, ys):
    """SVG polyline points, one "%.3f,%.3f" pair per point, joined by spaces."""
    return " ".join(map("%.3f,%.3f".__mod__, zip(np.asarray(xs).tolist(), np.asarray(ys).tolist())))
