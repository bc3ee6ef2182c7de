"""Independent reference computations used to cross-check the library."""
import itertools
import math

import numpy as np
from numpy.polynomial import polynomial as P

from btensor.core import Tensor, _as_rows, contract_batch
from btensor.spectral import VALUE_DEDUP_TOL, VECTOR_DEDUP_TOL
from btensor.structure import _diag_flat_positions
from btensor.tcp import TcpInstance, _fb_newton, _monotone_newton, _newton_from, outcome_at


def naive_contract(tensor, x):
    """m-nested-loop contraction, deliberately kept free of numpy reductions."""
    m, n = tensor.order, tensor.dim
    arr = tensor.array
    out = np.zeros(n)
    for i in range(n):
        total = 0.0
        for idx in itertools.product(range(n), repeat=m - 1):
            term = arr[(i, *idx)]
            for j in idx:
                term *= x[j]
            total += term
        out[i] = total
    return out


def naive_matrix_contract(tensor, xs) -> np.ndarray:
    """``A x^(m-2)`` for each row x of a (k, n) stack: the (k, n, n) matrices whose (i, j) entry
    sums ``a[i, j, l3, ..., lm] * x[l3] * ... * x[lm]`` over every index tuple, one tuple at a time."""
    xs = np.asarray(xs, dtype=float)
    m, n = tensor.order, tensor.dim
    arr = tensor.array
    out = np.zeros((len(xs), n, n))
    for i, j, *rest in itertools.product(range(n), repeat=m):
        term = np.full(len(xs), arr[(i, j, *rest)])
        for l in rest:
            term = term * xs[:, l]
        out[:, i, j] += term
    return out


def chain_contract(tensor, x):
    """The single-vector chain of matrix-vector products, last index first: the reference
    that every ``contract_batch`` row must equal bit for bit."""
    v = np.asarray(x, dtype=float)
    out = tensor.array
    for _ in range(tensor.order - 1):
        out = out.reshape(-1, tensor.dim) @ v
    return out


def broadcast_jacobian(tensor, x) -> np.ndarray:
    """An independent slot-by-slot reference for ``core.contraction_jacobian``, which agrees with
    it within rounding: each slot's term is contracted on its own, with numpy's broadcast matmul
    making one (n, n) @ (n, 1) call per block of every product, and the terms are added to zero.

    Derivative matrix of ``x -> contract(tensor, x)``: (n,) -> (n, n), or row-wise (k, n) -> (k, n, n).

    Uses the exact multilinear rule: one term per contracted index slot, so
    no symmetry of the entries is assumed.  A batch row is bit for bit the
    single-vector result.
    """
    pts = _as_rows(tensor, x)
    m, n, k = tensor.order, tensor.dim, len(pts)
    # Each row as an (n, 1) column, behind as many unit axes as the partial contraction has index axes.
    cols = [pts.reshape((k,) + (1,) * ones + (n, 1)) for ones in range(m - 2, 0, -1)]
    jac = np.zeros((k, n, n))
    for slot in range(1, m):
        # np.moveaxis(tensor.array, slot, 1), with a leading batch axis.
        part = tensor.array.transpose([0, slot, *range(1, slot), *range(slot + 1, m)])[None]
        for col in cols:
            part = (part @ col)[..., 0]
        jac += part
    return jac.reshape(np.shape(x) + (n,))


def serial_dedup_and_sort(pairs):
    """Keep-first deduplication of eigenpairs in (value, vector) order, one kept pair at a time:
    the reference for ``spectral._dedup_and_sort``."""
    kept = []
    for pair in sorted(pairs, key=lambda p: (p.value, tuple(p.vector))):
        # A duplicate has a close value and a vector close to the kept one or to its negative.
        if not any(
            abs(pair.value - other.value) <= VALUE_DEDUP_TOL
            and min(np.max(np.abs(pair.vector - other.vector)), np.max(np.abs(pair.vector + other.vector)))
            <= VECTOR_DEDUP_TOL
            for other in kept
        ):
            kept.append(pair)
    return kept


# The pass orders of ``tcp.solve`` (min-map first) and of ``tcp.boundedness_probe``.
SOLVE_PASSES = (_monotone_newton, _fb_newton)
PROBE_PASSES = (_fb_newton, _monotone_newton)


def serial_newton_from(instance, x0, tol, passes):
    """The first of ``passes``, then the second where it fails, start by start: the reference
    for each row of ``tcp._newton_from``.  Returns one (x, residual) per start."""
    first, second = passes
    results = []
    for start in x0:
        [x], [res] = first(instance, start[None], tol)
        if not res <= tol:
            [x_second], [res_second] = second(instance, start[None], tol)
            if res_second < (math.inf if math.isnan(res) else res):
                x, res = x_second, res_second
        results.append((x, float(res)))
    return results


def serial_solve(instance, starts, tol, seed):
    """``tcp.solve`` start at a time: each start made as it is asked for and run alone, up to the
    first that converges.  Returns the outcome of the kept start."""
    tensor, q = instance.tensor, instance.q
    base = np.maximum(-q, 0.0) ** (1.0 / (tensor.order - 1))

    def start_points():
        yield from [0.5 * base, base, 2.0 * base][:starts]
        rng = np.random.default_rng(seed)
        scale = 1.0 + float(base.max(initial=0.0))
        for _ in range(starts - 3):
            yield rng.uniform(0.0, scale, size=tensor.dim)

    best = None
    for used, x0 in enumerate(start_points(), start=1):
        [x], [res] = _newton_from(instance, x0[None], tol, SOLVE_PASSES)
        if res <= tol or best is None or res < best[1] or (res == best[1] and tuple(x) < tuple(best[0])):
            best = (x, res)
        if res <= tol:
            break
    return outcome_at(instance, best[0], tol, used)


def serial_boundedness_probe(tensor, q, starts, seed, radii, tol, passes):
    """``tcp.boundedness_probe`` radius at a time, one ``_newton_from`` stack per radius with the
    passes in the order given.  Returns the (x, residual) of every start, radius by radius, and
    the verdict."""
    instance = TcpInstance(tensor, q)
    rng = np.random.default_rng(seed)
    rows, per_radius = [], []
    for radius in radii:
        found = []
        x0 = np.array([rng.uniform(0.0, radius, size=tensor.dim) for _ in range(starts)])
        for x, res in zip(*_newton_from(instance, x0, tol, passes)):
            rows.append((x, res))
            if res <= tol and not any(np.max(np.abs(x - y)) <= 1e-6 for y in found):
                found.append(x)
        per_radius.append(found)

    def same(a, b):
        return len(a) == len(b) and all(any(np.max(np.abs(x - y)) <= 1e-6 for y in b) for x in a)

    stable_radius = radii[-1]
    for k in range(1, len(per_radius)):
        if same(per_radius[k - 1], per_radius[k]):
            stable_radius = radii[k - 1]
            break
    bounded = all(float(np.max(np.abs(x))) < 10.0 * stable_radius for found in per_radius for x in found)
    return rows, bounded


def naive_is_symmetric(array):
    """Entry-by-entry check of invariance under every index permutation."""
    n, m = array.shape[0], array.ndim
    for idx in itertools.product(range(n), repeat=m):
        for perm in itertools.permutations(idx):
            if array[perm] != array[idx]:
                return False
    return True


def naive_diag_flat_positions(order, dim):
    """Place of (i, ..., i) among a row's index tuples, listed in lexicographic order."""
    tuples = list(itertools.product(range(dim), repeat=order - 1))
    return [tuples.index((i,) * (order - 1)) for i in range(dim)]


def naive_row_sums(tensor):
    m, n = tensor.order, tensor.dim
    arr = tensor.array
    sums = np.zeros(n)
    for i in range(n):
        total = 0.0
        for idx in itertools.product(range(n), repeat=m - 1):
            total += arr[(i, *idx)]
        sums[i] = total
    return sums


def grid_min_point(tensor, q, radius, points=2001, rows=125):
    """Exhaustive complementarity-residual scan over [0, radius]^2 (order 3, dim 2 only).

    The slack is the explicit quadratic form
    w_i = q_i + a_i00 x0^2 + (a_i01 + a_i10) x0 x1 + a_i11 x1^2,
    evaluated ``rows`` grid values of x0 at a time against every x1.  Returns the smallest
    residual and the first grid point that attains it.
    """
    assert tensor.dim == 2 and tensor.order == 3
    arr = tensor.array

    def slack(i, x0, x1):
        return q[i] + arr[i, 0, 0] * x0 * x0 + (arr[i, 0, 1] + arr[i, 1, 0]) * x0 * x1 + arr[i, 1, 1] * x1 * x1

    axis = np.linspace(0.0, radius, points)
    x1 = axis[None, :]
    best, point = np.inf, None
    for lo in range(0, points, rows):
        x0 = axis[lo : lo + rows, None]
        residual = np.maximum(
            np.abs(np.minimum(x0, slack(0, x0, x1))), np.abs(np.minimum(x1, slack(1, x0, x1)))
        )
        i, j = np.unravel_index(np.argmin(residual), residual.shape)
        if residual[i, j] < best:
            best, point = float(residual[i, j]), np.array([axis[lo + i], axis[j]])
    return best, point


def grid_min_residual(tensor, q, radius, points=2001, rows=125):
    """The smallest residual of the :func:`grid_min_point` scan."""
    return grid_min_point(tensor, q, radius, points, rows)[0]


def dim2_tcp_solutions(tensor, q):
    """Every solution x of the dimension-2 complementarity problem, support by support.

    Empty support: x = 0, a solution when q >= 0.  Support {i}: x = s e_i with
    a_i..i s^(m-1) = -q_i, kept when the other slack is >= 0.  Support {0, 1}: x = s u with
    u = (t, 1 - t), 0 < t < 1, and w = q + s^(m-1) c(t) = 0, where c(t) is the contraction at
    u, a polynomial in t read off the entries; so c(t) is parallel to -q, a root of
    -q_1 c_0(t) + q_0 c_1(t), and s^(m-1) = -q_k / c_k(t) must be positive.  At q = 0 that
    polynomial vanishes and only the supports above are listed.
    """
    arr, q = np.asarray(tensor.array, dtype=float), np.asarray(q, dtype=float)
    m = arr.ndim
    assert arr.shape == (2,) * m and q.shape == (2,)
    # c_i(t) = sum of a_i,idx t^(zeros in idx) (1 - t)^(ones in idx), in increasing powers of t.
    c = [np.zeros(1), np.zeros(1)]
    for i in range(2):
        for idx in itertools.product(range(2), repeat=m - 1):
            zeros = idx.count(0)
            term = P.polymul(P.polypow([0.0, 1.0], zeros), P.polypow([1.0, -1.0], m - 1 - zeros))
            c[i] = P.polyadd(c[i], arr[(i, *idx)] * term)
    solutions = [np.zeros(2)] if (q >= 0).all() else []
    for i in range(2):
        diag, other = arr[(i,) * m], arr[(1 - i,) + (i,) * (m - 1)]
        # Signs and roots taken apart, as -q_i / a_i..i may underflow to 0 where s does not.
        if np.sign(-q[i]) * np.sign(diag) > 0 and q[1 - i] + other * (-q[i] / diag) >= 0:
            x = np.zeros(2)
            x[i] = abs(q[i]) ** (1.0 / (m - 1)) / abs(diag) ** (1.0 / (m - 1))
            solutions.append(x)
    cross = np.trim_zeros(P.polysub(-q[1] * c[0], -q[0] * c[1]), "b")
    for root in np.roots(cross[::-1]) if cross.size > 1 else []:
        t = float(root.real)
        if abs(root.imag) <= 1e-9 and 0.0 < t < 1.0:
            values = np.array([P.polyval(t, c[0]), P.polyval(t, c[1])])
            k = int(np.argmax(np.abs(values)))
            if -q[k] / values[k] > 0:
                solutions.append((-q[k] / values[k]) ** (1.0 / (m - 1)) * np.array([t, 1.0 - t]))
    return solutions


def radial_grid_oracle(tensor, q, resolution=24):
    """Coarse complementarity search: scan simplex directions, solve radially.

    Along a fixed direction u the slack is w(t) = q + t**(m-1) * c with
    c the contraction at u, so each coordinate's zero crossing has the
    closed form t_k = ((-q_k) / c_k) ** (1/(m-1)); the best point per
    direction sits at one of those crossings (refined by a short golden
    section sweep between them).  Returns (best_x, best_residual).
    """
    from btensor.structure import simplex_lattice

    m = tensor.order
    best_x, best_res = None, np.inf

    def ray_residual(u, c, t):
        x = t * u
        w = q + t ** (m - 1) * c
        return float(np.max(np.abs(np.minimum(x, w))))

    for u in simplex_lattice(resolution, tensor.dim):
        c = naive_contract(tensor, u)
        candidates = [0.0]
        for k in range(tensor.dim):
            if u[k] > 0 and c[k] != 0 and -q[k] / c[k] > 0:
                candidates.append(float((-q[k] / c[k]) ** (1.0 / (m - 1))))
        lo = 0.0
        hi = 1.5 * max(candidates) + 1e-6
        ratio = (np.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c1 = b - ratio * (b - a)
        c2 = a + ratio * (b - a)
        f1, f2 = ray_residual(u, c, c1), ray_residual(u, c, c2)
        for _ in range(80):
            if f1 <= f2:
                b, c2, f2 = c2, c1, f1
                c1 = b - ratio * (b - a)
                f1 = ray_residual(u, c, c1)
            else:
                a, c1, f1 = c1, c2, f2
                c2 = a + ratio * (b - a)
                f2 = ray_residual(u, c, c2)
        candidates.append(0.5 * (a + b))
        for t in candidates:
            res = ray_residual(u, c, t)
            if res < best_res:
                best_res, best_x = res, t * u
    return best_x, best_res


def naive_simplex_lattice(resolution, dim):
    """Every vector of dim nonnegative integers summing to ``resolution``, sorted, over ``resolution``."""

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, parts - 1):
                yield (head,) + rest

    rows = sorted(compositions(resolution, dim))
    return np.array(rows, dtype=float).reshape(-1, dim) / resolution


def reference_semipositivity_certificate(tensor, mode, resolution):
    """``(worst_point, worst_value, violated)`` from every lattice point scored by ``contract_batch``,
    the first smallest support max in lattice order."""
    points = naive_simplex_lattice(resolution, tensor.dim)
    support_max = np.where(points > 0, contract_batch(tensor, points), -math.inf).max(axis=1)
    worst = int(np.argmin(support_max))
    worst_value = float(support_max[worst])
    return points[worst], worst_value, worst_value <= 0 if mode == "strict" else worst_value < 0


def naive_sparse_tensor(order, dim, default, entries):
    """The sparse form filled one entry at a time, as the reference for ``tensor_from_obj``.

    Returns the (dim,)*order array, or raises ValueError with the message
    the library gives for the first malformed entry.  A listed position
    takes the value of its last entry.
    """
    arr = np.full((dim,) * order, float(default))
    for pos, item in enumerate(entries):
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not isinstance(item[0], list)
            or not isinstance(item[1], (int, float))
            or isinstance(item[1], bool)
        ):
            raise ValueError(f"entry {pos}: expected [[i1, ..., im], value]")
        index, value = item
        if len(index) != order:
            raise ValueError(f"entry {pos}: index needs {order} components, got {len(index)}")
        for axis, i in enumerate(index):
            if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= dim:
                raise ValueError(f"entry {pos}: index component {axis} must be in 1..{dim}, got {i!r}")
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if not math.isfinite(number):
            raise ValueError(f"entry {pos}: value must be a finite number")
        arr[tuple(i - 1 for i in index)] = number
    return arr


def loop_random_b_tensor(order, dim, rng):
    """The former ``structure.random_b_tensor``, kept verbatim as the bitwise reference: one
    Python pass per row, drawing that row's margin with one scalar ``rng.uniform`` call."""
    arr = rng.uniform(-1.0, 1.0, size=(dim,) * order)
    rows = arr.reshape(dim, -1)
    diag_pos = _diag_flat_positions(order, dim)
    scale = float(dim ** (order - 1))
    for i in range(dim):
        rows[i, diag_pos[i]] = 0.0
        off_sum = rows[i].sum()
        margin = rng.uniform(0.01, 1.0)
        off_max = max(0.0, rows[i].max())
        rows[i, diag_pos[i]] = scale * (off_max + margin) - off_sum
    return Tensor(arr)
