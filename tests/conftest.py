"""Shared builders and the reference oracles: the dense-matrix solver, the
Grunwald-Letnikov derivative and the central difference of a symbol.

The dense path never touches an FFT or a per-frequency division: the
transform pair is materialized as explicit quadrature matrices straight
from its definition, the full operator becomes one (N*d) x (N*d) matrix,
and the system is solved with a dense LU.  Agreement with the spectral
solver is therefore a genuine cross-check of both the transform
normalization and the symbol assembly.  The Grunwald-Letnikov oracle
discretizes the package's fractional derivative from the left end of a
right-supported sample array and is first-order accurate; it checks the
spectral path against an implementation that never touches a Fourier
transform.
"""

import numpy as np
from hypothesis import settings

import fracspec as fs

# Property tests replay the same examples on every run and keep no example
# database; a slow example is not a failure.
settings.register_profile("fracspec", derandomize=True, database=None, deadline=None)
settings.load_profile("fracspec")


def make_problem(
    grid,
    gamma=1.5,
    a_value=-1.0,
    mat=None,
    sector_angle=np.pi / 4,
    q_form="unfactored",
    a_family="constant",
    operator=None,
):
    if operator is None:
        if mat is None:
            mat = np.array([[1.0]])
        operator = fs.constant_operator(np.asarray(mat, dtype=float))
    if a_family == "constant":
        a = fs.constant_coefficient(a_value)
    else:
        a = fs.scaled_decay_coefficient(a_value, gamma)
    return fs.EllipticProblem(
        order=fs.FractionalOrder(gamma),
        a=a,
        A=operator,
        sector=fs.Sector(sector_angle),
        grid=grid,
        q_form=q_form,
    )


def dft_matrices(grid):
    """Quadrature matrices of the transform pair, straight from the definition."""
    x = grid.points
    xi = 2.0 * np.pi * np.fft.fftfreq(grid.size, d=grid.spacing)
    fwd = grid.spacing * np.exp(-1j * np.outer(xi, x))
    inv = np.exp(1j * np.outer(x, xi)) / (2.0 * grid.half_width)
    return fwd, inv, xi


def branch_power(xi, alpha):
    """(i*xi)^alpha on the package's branch, recomputed from scratch."""
    xi = np.asarray(xi, dtype=float)
    if alpha == 0.0:
        return np.ones(xi.shape, dtype=complex)
    out = np.zeros(xi.shape, dtype=complex)
    nz = xi != 0.0
    out[nz] = np.abs(xi[nz]) ** alpha * np.exp(0.5j * np.pi * alpha * np.sign(xi[nz]))
    return out


def gl_weights(gamma: float, n: int) -> np.ndarray:
    """First n+1 Grunwald-Letnikov weights: w_0 = 1, w_k = w_{k-1}(k-1-gamma)/k."""
    if n < 0:
        raise ValueError("weight count must be non-negative")
    k = np.arange(1, n + 1)
    return np.concatenate(([1.0], np.cumprod((k - 1.0 - gamma) / k)))


def rl_derivative_oracle(samples: np.ndarray, gamma: float, spacing: float) -> np.ndarray:
    """Grunwald-Letnikov derivative of order gamma on a uniform grid over [0, X].

    ``samples`` holds f(0), f(h), ..., with h = ``spacing``; the value at
    x_j uses only samples up to x_j, so the result equals the line
    derivative wherever f vanishes left of the base point.  First-order
    accurate in h.
    """
    if not 1.0 < gamma < 2.0:
        raise ValueError(
            f"Grunwald-Letnikov oracle requires an order inside (1, 2), got {gamma}"
        )
    if spacing <= 0.0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    vals = np.asarray(samples)
    if vals.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    w = gl_weights(gamma, vals.size - 1)
    return np.convolve(vals, w)[: vals.size] * spacing ** (-gamma)


def central_difference(func, xi):
    """(func(xi + h) - func(xi - h)) / 2h at h = 1e-5 * max(1, |xi|), for a
    scalar symbol (M,) or a matrix symbol (M, d, d): the judge of the
    symbols' analytic derivatives."""
    xi = np.asarray(xi, dtype=float)
    step = 1e-5 * np.maximum(1.0, np.abs(xi))
    diff = np.asarray(func(xi + step)) - np.asarray(func(xi - step))
    return diff / (2.0 * step).reshape(step.shape + (1,) * (diff.ndim - step.ndim))


def dense_operator(prob, lam):
    """(N*d) x (N*d) physical-space matrix of O + lambda-coupling."""
    fwd, inv, xi = dft_matrices(prob.grid)
    d = prob.dim
    frac = branch_power(xi, prob.order.gamma)
    a_vals = prob.a(xi)
    a_mats = prob.A(xi)
    eye = np.eye(d)
    if prob.q_form == "unfactored":
        b = (a_vals * frac + lam)[:, None, None] * eye + a_mats
    else:
        b = a_vals[:, None, None] * ((frac + lam)[:, None, None] * eye + a_mats)
    n = prob.grid.size
    big = np.einsum("jk,kab,kK->jaKb", inv, b, fwd).reshape(n * d, n * d)
    return big


def dense_solve(prob, f, lam):
    """Reference solution of (O + lambda) u = f through the dense matrix."""
    big = dense_operator(prob, complex(lam))
    u = np.linalg.solve(big, f.values.reshape(-1))
    return fs.GridFunction(prob.grid, u.reshape(prob.grid.size, prob.dim))


def rel_linf(got, want):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(got - want))) / scale


def dense_evolve(prob, f, scheme):
    """Reference solution of u_t + O u = f, u(0) = 0, over the forcing's time
    grid, stepped on the dense (N*d) x (N*d) matrix of O = dense_operator(prob, 0).

    "exact" takes e^Z, phi1(Z) and phi2(Z), Z = -dt O, from one scipy expm
    of the augmented 3Nd block [[Z, I, 0], [0, 0, I], [0, 0, 0]] and is exact
    for forcing linear on each step; the two steppers use dense inverses.
    Returns the (M, N, d) values of u at every time.
    """
    from scipy.linalg import expm

    big = dense_operator(prob, 0.0)
    n = big.shape[0]
    steps = f.times.size - 1
    dt = float(f.times[-1]) / steps
    eye = np.eye(n)
    if scheme == "exact":
        aug = np.zeros((3 * n, 3 * n), dtype=complex)
        aug[:n, :n] = -dt * big
        aug[:n, n : 2 * n] = aug[n : 2 * n, 2 * n :] = eye
        blocks = expm(aug)[:n]
        e, p1, p2 = blocks[:, :n], blocks[:, n : 2 * n], blocks[:, 2 * n :]

        def step(u, f0, f1):
            return e @ u + dt * (p1 @ f0 + p2 @ (f1 - f0))
    elif scheme == "implicit-euler":
        inv = np.linalg.inv(eye + dt * big)

        def step(u, f0, f1):
            return inv @ (u + dt * f1)
    else:
        back = np.linalg.inv(eye + 0.5 * dt * big)
        fwd = eye - 0.5 * dt * big

        def step(u, f0, f1):
            return back @ (fwd @ u + 0.5 * dt * (f0 + f1))

    fv = f.values.reshape(f.times.size, n)
    u = np.zeros_like(fv)
    for m in range(steps):
        u[m + 1] = step(u[m], fv[m], fv[m + 1])
    return u.reshape(f.values.shape)
