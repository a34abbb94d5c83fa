"""Univariate and tensor-product B-spline spaces on the parametric domain.

All knot vectors are open (first and last knots repeated ``p + 1`` times) and
live on ``[0, 1]``.  The space-time discretization couples a tensor product of
spatial spline spaces with a temporal spline space whose first basis function
is removed, so that every member of the space vanishes at ``t = 0``.
"""

import numpy as np

__all__ = [
    "KnotVector",
    "SplineSpace",
    "SpaceTimeSpace",
    "tensor_at",
    "uniform_open_knots",
]


def distinct_sorted(values):
    """The distinct values of a 1D array, ascending, and how often each occurs.

    What ``np.unique(values, return_counts=True)`` returns, without loading
    ``numpy.ma`` (which ``np.unique`` imports on its first call).
    """
    x = np.sort(np.asarray(values, dtype=float))
    first = np.ones(x.size, dtype=bool)
    first[1:] = x[1:] != x[:-1]
    starts = np.flatnonzero(first)
    return x[starts], np.diff(np.append(starts, x.size))


def uniform_open_knots(degree, num_elements):
    """Open knot vector on [0, 1] with ``num_elements`` uniform spans."""
    if num_elements < 1:
        raise ValueError("num_elements must be >= 1")
    interior = np.linspace(0.0, 1.0, num_elements + 1)[1:-1]
    return np.concatenate(
        [np.zeros(degree + 1), interior, np.ones(degree + 1)]
    )


class KnotVector:
    """An open knot vector together with its polynomial degree.

    Parameters
    ----------
    knots : array_like
        Nondecreasing knot sequence on [0, 1].  The first and last knots must
        each appear exactly ``degree + 1`` times and interior knots at most
        ``degree`` times.
    degree : int
        Polynomial degree of the associated B-spline basis.
    """

    def __init__(self, knots, degree):
        knots = np.ascontiguousarray(knots, dtype=float)
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        if knots.ndim != 1:
            raise ValueError("knots must be a 1D sequence")
        if knots.size < 2 * (degree + 1):
            raise ValueError("knot vector too short for the given degree")
        if np.any(np.diff(knots) < 0):
            raise ValueError("knots must be nondecreasing")
        if knots[0] != 0.0 or knots[-1] != 1.0:
            raise ValueError("knot vector must span [0, 1]")
        p = degree
        if np.any(knots[: p + 1] != 0.0) or knots[p + 1] == 0.0:
            raise ValueError("first knot must have multiplicity exactly degree + 1")
        if np.any(knots[-p - 1 :] != 1.0) or knots[-p - 2] == 1.0:
            raise ValueError("last knot must have multiplicity exactly degree + 1")
        interior = knots[p + 1 : -p - 1]
        if interior.size:
            _, counts = distinct_sorted(interior)
            if p >= 1 and np.any(counts > p):
                raise ValueError("interior knot multiplicity exceeds degree")
        self.knots = knots
        self.degree = degree

    @property
    def dimension(self):
        """Number of B-spline basis functions."""
        return self.knots.size - self.degree - 1

    @property
    def breakpoints(self):
        """Distinct knots."""
        return distinct_sorted(self.knots)[0]

    @property
    def mesh_size(self):
        """Largest knot span."""
        return float(np.max(np.diff(self.knots)))

    def __repr__(self):
        return "KnotVector(p=%d, n=%d)" % (self.degree, self.dimension)


def _basis_all_ders(knots, p, x, nders):
    """Nonzero basis functions and derivatives at the points ``x``.

    Returns ``(first, ders)`` where ``ders[k, m, j]`` is the k-th derivative
    of basis function ``first[m] + j`` at ``x[m]``.  Triangular recursion
    with the standard derivative recurrence (Piegl & Tiller, A2.2/A2.3); the
    loops run over the degree and every point takes the same arithmetic as a
    one-point evaluation.  The knot span of ``x`` resolves ties to the right,
    except ``x = 1`` which uses the last nonempty span.
    """
    x = np.asarray(x, dtype=float)
    n = knots.size - p - 1
    span = np.searchsorted(knots, x, side="right") - 1
    span = np.minimum(np.maximum(span, p), n - 1)
    ndu = np.empty((p + 1, p + 1, x.size))
    left = np.empty((p + 1, x.size))
    right = np.empty((p + 1, x.size))
    ndu[0, 0] = 1.0
    for j in range(1, p + 1):
        left[j] = x - knots[span + 1 - j]
        right[j] = knots[span + j] - x
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved
    ders = np.zeros((nders + 1, p + 1, x.size))
    ders[0] = ndu[:, p]
    a = np.empty((2, p + 1, x.size))
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, nders + 1):
            d = np.zeros(x.size)
            rk = r - k
            pk = p - k
            if r >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                d = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                d += a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                d += a[s2, k] * ndu[r, pk]
            ders[k, r] = d
            s1, s2 = s2, s1
    fac = float(p)
    for k in range(1, nders + 1):
        ders[k] *= fac
        fac *= p - k
    return span - p, ders.transpose(0, 2, 1)


def tensor_at(spaces, coeffs, points, orders):
    """Derivative of a tensor-product spline at scattered parametric points.

    ``spaces`` lists one space per direction (direction 1 first), ``coeffs``
    has axes ``(n_k, ..., n_1, *rest)``, ``points`` is shaped ``(m, k)`` and
    ``orders`` gives the derivative order per direction.  Each point's local
    coefficient block is gathered and contracted one direction at a time.
    Returns an array shaped ``(m, *rest)``.
    """
    k = len(spaces)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != k:
        raise ValueError("points must have %d columns" % k)
    if not np.all((points >= 0.0) & (points <= 1.0)):
        raise ValueError("evaluation points outside [0, 1]")
    m = points.shape[0]
    if any(o > s.degree for s, o in zip(spaces, orders)):
        return np.zeros((m,) + coeffs.shape[k:])
    index = []
    tables = []
    for l, (s, o) in enumerate(zip(spaces, orders)):
        first, ders = _basis_all_ders(s.knots, s.degree, points[:, l], o)
        shape = [m] + [1] * k
        shape[k - l] = s.degree + 1
        index.append((first[:, None] + np.arange(s.degree + 1)).reshape(shape))
        tables.append(ders[o])
    val = coeffs[tuple(reversed(index))]
    for table in reversed(tables):
        val = np.einsum("qi,qi...->q...", table, val)
    return val


class SplineSpace:
    """Univariate B-spline space over an open knot vector.

    Attributes
    ----------
    knot_vector : KnotVector
    dimension : int
        Number of basis functions.
    breakpoints : ndarray
        Distinct knots (the mesh).
    mesh_size : float
        Largest knot span.
    """

    def __init__(self, knot_vector):
        if not isinstance(knot_vector, KnotVector):
            raise TypeError("knot_vector must be a KnotVector")
        self.knot_vector = knot_vector
        self.knots = knot_vector.knots
        self.degree = knot_vector.degree
        self.dimension = knot_vector.dimension
        self.breakpoints = knot_vector.breakpoints
        self.mesh_size = knot_vector.mesh_size

    @classmethod
    def uniform(cls, degree, num_elements):
        """Space of degree ``degree`` on a uniform open knot vector."""
        return cls(KnotVector(uniform_open_knots(degree, num_elements), degree))

    @classmethod
    def from_knots(cls, knots, degree):
        return cls(KnotVector(knots, degree))

    @property
    def num_elements(self):
        return self.breakpoints.size - 1

    def eval_basis(self, x, order=0):
        """Evaluate the ``p + 1`` possibly nonzero basis derivatives at ``x``.

        Parameters
        ----------
        x : float
            Parametric coordinate in [0, 1].
        order : int
            Derivative order, ``0 <= order <= degree``.

        Returns
        -------
        first : int
            Index of the first active basis function.
        values : ndarray
            Values of the ``degree + 1`` active basis derivatives; all other
            basis functions vanish at ``x``.
        """
        if not 0.0 <= x <= 1.0:
            raise ValueError("evaluation point %r outside [0, 1]" % (x,))
        if order < 0 or order > self.degree:
            raise ValueError(
                "derivative order %d not in [0, %d]" % (order, self.degree)
            )
        first, ders = _basis_all_ders(self.knots, self.degree, [float(x)], order)
        return int(first[0]), ders[order, 0].copy()

    def greville(self):
        """Greville abscissae: averages of ``degree`` consecutive knots."""
        p = self.degree
        if p == 0:
            # Midpoints keep the abscissae strictly inside the elements.
            return 0.5 * (self.knots[:-1] + self.knots[1:])
        n = self.dimension
        out = np.empty(n)
        for i in range(n):
            out[i] = self.knots[i + 1 : i + p + 1].mean()
        return out

    def collocation_matrix(self, points, order=0):
        """Dense matrix of basis (derivative) values, shape (npts, dimension).

        Row ``m`` holds the ``degree + 1`` active values at ``points[m]`` and
        zeros elsewhere; every entry is zero for ``order > degree``.
        """
        return self.collocation_matrices(points, order)[order]

    def collocation_matrices(self, points, nders):
        """Collocation matrices of the orders ``0..nders``, from one recursion.

        Shaped (nders + 1, npts, dimension): entry ``k`` is
        :meth:`collocation_matrix` ``(points, k)``.  A derivative's values
        do not depend on the highest order of the recursion, so a caller
        that needs several orders at one point set tabulates them at once.
        """
        points = np.atleast_1d(np.asarray(points, dtype=float))
        p = self.degree
        out = np.zeros((nders + 1, points.size, self.dimension))
        first, ders = _basis_all_ders(self.knots, p, points, min(nders, p))
        cols = first[:, None] + np.arange(p + 1)
        out[: ders.shape[0], np.arange(points.size)[:, None], cols] = ders
        return out

    def extension_window(self, i):
        """Support-extension interval of basis index ``i`` (0-based).

        The window spans knots ``i - degree`` through ``i + degree + 1``,
        clamped to the knot range; for uniform interior indices its width is
        ``(2 degree + 1) h``.
        """
        if not 0 <= i < self.dimension:
            raise IndexError("basis index %d out of range" % i)
        p = self.degree
        lo = self.knots[max(i - p, 0)]
        hi = self.knots[min(i + p + 1, self.knots.size - 1)]
        return float(lo), float(hi)

    def window_elements(self, i):
        """Half-open element index range intersecting the extension window."""
        lo, hi = self.extension_window(i)
        first = int(np.searchsorted(self.breakpoints, lo, side="right")) - 1
        first = max(first, 0)
        last = int(np.searchsorted(self.breakpoints, hi, side="left")) - 1
        last = min(max(last, first), self.num_elements - 1)
        return first, last + 1

    def window_table(self, count=None):
        """Gather table of the element windows of the first ``count`` functions.

        Row ``i`` lists the elements of :meth:`window_elements` ``(i)``,
        padded to a common width by repeating the window's last element, so
        the maximum of element values gathered by a row is their maximum
        over the window.  ``count`` defaults to every basis function.
        """
        if count is None:
            count = self.dimension
        windows = [self.window_elements(i) for i in range(count)]
        width = max(b - a for a, b in windows)
        return np.array(
            [np.minimum(np.arange(a, a + width), b - 1) for a, b in windows]
        )

    def __repr__(self):
        return "SplineSpace(p=%d, n=%d, elements=%d)" % (
            self.degree,
            self.dimension,
            self.num_elements,
        )


class SpaceTimeSpace:
    """Tensor-product space-time spline space with a zero initial condition.

    The temporal factor drops its first basis function so every member of the
    space vanishes at ``t = 0``.  Coefficients are ordered colexicographically
    with space fastest: global index ``g = i_t * N_s + flat(i_s)`` where the
    first spatial direction runs fastest.

    Parameters
    ----------
    spatial : sequence of SplineSpace
        One space per spatial direction (direction 1 first).
    time : SplineSpace
        Temporal space; must have maximal interior smoothness.
    """

    def __init__(self, spatial, time):
        self.spatial = tuple(spatial)
        if not self.spatial:
            raise ValueError("at least one spatial direction is required")
        for s in self.spatial:
            if s.degree < 1:
                raise ValueError("spatial degrees must be >= 1")
        if time.degree < 1:
            raise ValueError("temporal degree must be >= 1")
        interior = time.knots[time.degree + 1 : -time.degree - 1]
        if interior.size and distinct_sorted(interior)[1].max() > 1:
            raise ValueError("temporal knot vector must have maximal smoothness")
        if time.dimension < 3:
            raise ValueError("temporal space needs at least 3 basis functions")
        self.time = time

    @property
    def num_spatial_dims(self):
        return len(self.spatial)

    @property
    def num_space(self):
        """N_s: dimension of the spatial tensor-product factor."""
        n = 1
        for s in self.spatial:
            n *= s.dimension
        return n

    @property
    def num_time(self):
        """N_t: temporal dimension after removing the first basis function."""
        return self.time.dimension - 1

    @property
    def num_dof(self):
        return self.num_space * self.num_time

    @property
    def spatial_shape(self):
        """Shape of the spatial axes in C order (direction d first)."""
        return tuple(s.dimension for s in reversed(self.spatial))

    @property
    def coeff_shape(self):
        return (self.num_time,) + self.spatial_shape

    def time_collocation(self, points, order=0):
        """Dense collocation matrix of the constrained temporal basis."""
        return self.time_collocations(points, order)[order]

    def time_collocations(self, points, nders):
        """Constrained temporal collocation matrices of the orders ``0..nders``.

        Shaped (nders + 1, npts, N_t), from one recursion (see
        :meth:`SplineSpace.collocation_matrices`).
        """
        return np.ascontiguousarray(
            self.time.collocation_matrices(points, nders)[:, :, 1:]
        )

    def time_greville(self):
        """Greville abscissae of the constrained temporal basis functions."""
        return self.time.greville()[1:]

    def __repr__(self):
        return "SpaceTimeSpace(d=%d, N_s=%d, N_t=%d)" % (
            self.num_spatial_dims,
            self.num_space,
            self.num_time,
        )
