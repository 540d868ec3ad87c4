"""Steady state of the RF-dressed four-level cesium ladder.

Basis ordering is |1> = 6S1/2, |2> = 6P3/2, |3> = 52D5/2, |4> = 53P3/2.
All rates, Rabi frequencies and detunings are angular (rad/s).

Rotating-frame conventions
--------------------------
The Hamiltonian diagonal holds the negatives of the cumulative detunings
(0, d2, d3, d4) with d2 = delta_p, d3 = d2 + delta_c, d4 = d3 + delta_rf.
For an atom with velocity v along the probe axis the probe detuning is
Doppler-shifted by -k_p*v and the counter-propagating coupling by +k_c*v.
The RF Doppler shift (k_rf/k_p ~ 1e-5) is neglected.  Off-diagonal
couplings are -Omega/2 on the (1,2), (2,3) and (3,4) bonds.

Dissipation is Lindblad form with decays Gamma2: |2>->|1>,
Gamma3: |3>->|2> and a closing channel Gamma4: |4>->|1> (the real
branching of 53P3/2 differs; the closure keeps the generator
trace-preserving without extra levels).  An extra pure-dephasing rate
gamma_deph = 1/T2 damps every coherence involving |3> or |4>.

The steady state is solved for 16 real unknowns y, the populations and per
pair i < j (rho_ij + rho_ji)/sqrt2 and i(rho_ij - rho_ji)/sqrt2: in this
basis U a Lindblad L is the real R = U^H L U.  Detunings and velocity add a
2x2 rotation per coherence pair they move (6 coordinates for delta_p or
delta_rf, 10 for v), and every solve and `eig` is real.

Inside the kernel inf and NaN propagate silently: `steady_state`, `doppler_average` and
`susceptibility_batch` each ignore numpy's floating-point warnings once, and the residual
check, the self-checks (NaN fails) and the finite-chi check raise the one error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .constants import A0, CS_MASS, E_CHARGE, EPS0, HBAR, KB
from .errors import DomainError, InvariantViolation, NonConvergenceError, SingularSystemError, require

# Velocities below this are treated as a zero-temperature (delta-function)
# Maxwell distribution.
V_THERMAL_FLOOR = 1e-3


def cs_vapor_density(temperature: float) -> float:
    """Cs number density (m^-3) from the Taylor-Langmuir vapor-pressure fit.

    Solid phase below the 301.6 K melting point, liquid phase above;
    pressure in torr is 10**(2.881 + 4.711 - 3999/T) respectively
    10**(2.881 + 4.165 - 3830/T).
    """
    if not (temperature > 0):
        raise InvariantViolation("temperature must be positive for vapor density")
    if temperature < 301.6:
        log_p_torr = 2.881 + 4.711 - 3999.0 / temperature
    else:
        log_p_torr = 2.881 + 4.165 - 3830.0 / temperature
    pressure_pa = 133.322 * 10.0 ** log_p_torr
    return pressure_pa / (KB * temperature) if pressure_pa else 0.0  # k_B T may underflow too


@dataclass
class LadderSystem:
    """Atomic constants of the four-level ladder."""

    lambda_probe: float = 852e-9
    lambda_coupling: float = 509e-9
    gamma2: float = 2 * math.pi * 5.22e6   # 6P3/2 decay, rad/s
    # Rydberg population relaxation is transit-dominated: crossing the
    # 0.16 mm coupling beam at the mean thermal speed takes ~0.7 us
    gamma3: float = 1.4e6
    gamma4: float = 1.4e6
    gamma_deph: float = 2.0e6              # 1/T2 with T2 = 0.5 us, rad/s
    mu12: float = 3.797e-29                # probe dipole, C m (~4.48 e a0)
    mu_rf: float = 1745 * E_CHARGE * A0    # RF dipole, C m
    n_atoms: float | None = None           # vapor density override, m^-3
    temperature: float = 294.0
    atom_mass: float = CS_MASS
    cell_length: float = 0.03

    def __post_init__(self) -> None:
        require(self, positive=("lambda_probe", "lambda_coupling", "cell_length", "atom_mass"),
                nonnegative=("gamma2", "gamma3", "gamma4", "gamma_deph", "n_atoms", "temperature"))
        for keys, quantity, value in (
            (("lambda_probe",), "k_probe = 2 pi / lambda_probe", self.k_probe),
            (("lambda_coupling",), "k_coupling = 2 pi / lambda_coupling", self.k_coupling),
            (("temperature", "atom_mass"), "the Doppler width max(k_probe, k_coupling) * v_thermal",
             max(self.k_probe, self.k_coupling) * self.v_thermal),
            (("cell_length",), "k_probe * cell_length", self.k_probe * self.cell_length),
        ):
            if not math.isfinite(value):  # NaN fails too
                named = ", ".join(f"{key} = {getattr(self, key)!r}" for key in keys)
                raise InvariantViolation(f"{named}: {quantity} overflows")
        if self.n_atoms is None:
            self.n_atoms = cs_vapor_density(self.temperature)
            if self.n_atoms == 0.0:
                raise InvariantViolation(f"vapor-pressure fit underflows at temperature = "
                                         f"{self.temperature} K; pass n_atoms explicitly")

    @property
    def k_probe(self) -> float:
        return 2 * math.pi / self.lambda_probe

    @property
    def k_coupling(self) -> float:
        return 2 * math.pi / self.lambda_coupling

    @property
    def v_thermal(self) -> float:
        """1-D Maxwell-Boltzmann velocity sigma, sqrt(kB T / m)."""
        return math.sqrt(KB * self.temperature / self.atom_mass)


@dataclass
class FieldDrive:
    """Rabi frequencies and detunings of one operating point (rad/s)."""

    omega_p: float = 0.0
    omega_c: float = 0.0
    omega_rf: float = 0.0
    delta_p: float = 0.0
    delta_c: float = 0.0
    delta_rf: float = 0.0

    def __post_init__(self) -> None:
        require(self, nonnegative=("omega_p", "omega_c", "omega_rf"))


@dataclass
class DensityMatrix:
    """4x4 steady-state density matrix with physicality checks."""

    matrix: np.ndarray

    HERMITICITY_TOL = 1e-10
    TRACE_TOL = 1e-10
    EIGENVALUE_FLOOR = -1e-8

    def __post_init__(self) -> None:
        rho = np.asarray(self.matrix, dtype=complex)
        if rho.shape != (4, 4):
            raise InvariantViolation("density matrix must be 4x4")
        self.matrix = rho
        self.validate()

    def validate(self) -> None:
        rho = self.matrix
        if not np.all(np.isfinite(rho)):
            raise InvariantViolation("density matrix has non-finite entries")
        if not (np.max(np.abs(rho - rho.conj().T)) <= self.HERMITICITY_TOL):
            raise InvariantViolation("density matrix is not Hermitian")
        trace = np.trace(rho)
        if not (abs(trace.real - 1.0) <= self.TRACE_TOL and abs(trace.imag) <= self.TRACE_TOL):
            raise InvariantViolation("density matrix trace is not 1")
        eigs = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
        if not (eigs.min() >= self.EIGENVALUE_FLOOR):
            raise InvariantViolation("density matrix has a negative eigenvalue")

    @property
    def rho21(self) -> complex:
        """Probe-transition coherence <2|rho|1>."""
        return complex(self.matrix[1, 0])

    def population(self, level: int) -> float:
        """Population of |level> with 1-based labels."""
        return float(self.matrix[level - 1, level - 1].real)


def build_hamiltonian(sys: LadderSystem, drive: FieldDrive, v: float = 0.0) -> np.ndarray:
    """Rotating-frame Hamiltonian (rad/s) for one velocity class.

    Parameters
    ----------
    sys, drive : system constants and field amplitudes/detunings.
    v : velocity component along the probe propagation axis, m/s.

    Returns
    -------
    4x4 complex Hermitian array.
    """
    d2 = drive.delta_p - sys.k_probe * v
    d3 = d2 + drive.delta_c + sys.k_coupling * v
    d4 = d3 + drive.delta_rf
    h = np.zeros((4, 4), dtype=complex)
    h[1, 1] = -d2
    h[2, 2] = -d3
    h[3, 3] = -d4
    h[0, 1] = h[1, 0] = -drive.omega_p / 2
    h[1, 2] = h[2, 1] = -drive.omega_c / 2
    h[2, 3] = h[3, 2] = -drive.omega_rf / 2
    return h


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two 4x4 operators: the same products, in one broadcast."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(16, 16)


@lru_cache(maxsize=16)
def _dissipator(gamma2: float, gamma3: float, gamma4: float, gamma_deph: float) -> np.ndarray:
    """Lindblad dissipator as a read-only 16x16 superoperator (row-major vec).

    Built once per set of rates.  Rates that compare equal (0, 0.0 and -0.0)
    share an entry: they give the same bytes, since a zero rate only adds
    signed zeros to entries that end as +0.0 or nonzero.
    """
    eye = np.eye(4)
    d = np.zeros((16, 16), dtype=complex)
    for rate, target, source in ((gamma2, 0, 1), (gamma3, 1, 2), (gamma4, 0, 3)):
        c = np.zeros((4, 4))
        c[target, source] = math.sqrt(rate)
        cdc = c.T @ c
        d += _kron(c, c)                        # C rho C^dag  (C is real)
        d -= 0.5 * _kron(cdc, eye)
        d -= 0.5 * _kron(eye, cdc.T)
    i, j = np.divmod(np.arange(16), 4)          # dephasing: coherences involving |3> or |4>
    d += np.diag(np.where((i != j) & ((i >= 2) | (j >= 2)), -gamma_deph, 0.0)).astype(complex)
    d.flags.writeable = False
    return d


def _commutator(h: np.ndarray) -> np.ndarray:
    """-i[H, rho] as a 16x16 superoperator (row-major vec)."""
    eye = np.eye(4)
    return -1j * (_kron(h, eye) - _kron(eye, h.T))


def build_liouvillian(h: np.ndarray, sys: LadderSystem) -> np.ndarray:
    """16x16 generator L with d vec(rho)/dt = L vec(rho), row-major vec."""
    return _commutator(h) + _dissipator(sys.gamma2, sys.gamma3, sys.gamma4, sys.gamma_deph)


# --- the real Hermitian basis (see the module docstring) ---------------------
_I, _J = np.triu_indices(4, 1)  # the coherence pairs i < j
_SYM = 4 + 2 * np.arange(6)     # (rho_ij + rho_ji)/sqrt2; i(rho_ij - rho_ji)/sqrt2 at _SYM + 1
_U = np.zeros((16, 16), dtype=complex)
_U[5 * np.arange(4), np.arange(4)] = 1.0
_U[4 * _I + _J, _SYM], _U[4 * _J + _I, _SYM], _U[4 * _I + _J, _SYM + 1], _U[4 * _J + _I, _SYM + 1] = (
    np.array([1, 1, 1j, -1j]) * math.sqrt(0.5))
_RHO21 = _U[4]                  # rho[1, 0] = (U y)[4], row-major vec


def _real(lam: np.ndarray) -> np.ndarray:
    """R = U^H L U of a complex generator (or a stack); real for Hermiticity-preserving L."""
    return (_U.conj().T @ lam @ _U).real


def _trace_solve(gen: np.ndarray, unit_cols=()) -> np.ndarray:
    """Trace-1 steady state of one real generator R or a stack of them.

    Each is divided by s = max|R| / 2 and its redundant row 0 replaced by ones
    on the populations.  Returns y, the steady state, as column 0 (residual
    ||R y||_2 / s = ||L rho||_2 / s checked to 1e-10) followed by R_s^-1 e_j for
    j in `unit_cols`, R_s being R with row 0 replaced by s on the populations.
    """
    # |R_ab| = |u_a^H L u_b| <= 2 max|L| (||u||_1 <= sqrt2), so s is never above max|L|
    scale = 0.5 * np.max(np.abs(gen), axis=(-2, -1), keepdims=True)
    if np.any(scale == 0.0):
        raise SingularSystemError("Liouvillian is identically zero")
    a = gen / scale
    a[..., 0, :] = 0.0
    a[..., 0, :4] = 1.0
    # LAPACK solves a lone column by another routine, off in the last bits from
    # the steady state solved beside unit vectors: a second column keeps them equal
    rhs = np.eye(16)[:, [0, *unit_cols] if len(unit_cols) else [0, 0]]
    try:
        sol = np.linalg.solve(a, np.broadcast_to(rhs, gen.shape[:-2] + rhs.shape))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"steady-state system is singular: {exc}") from exc
    sol[..., 1:] /= scale
    residual = float(np.max(np.linalg.norm((gen @ sol[..., :1]) / scale, axis=-2)))
    if not (residual <= 1e-10):
        raise SingularSystemError(
            f"steady-state residual {residual:.3e} exceeds 1e-10; "
            "parameters are degenerate or near-degenerate"
        )
    return sol


def steady_state(liouvillian: np.ndarray) -> DensityMatrix:
    """Solve L rho = 0 (as R = U^H L U) with the trace constraint replacing one redundant row.

    Raises `SingularSystemError` if the system is degenerate (e.g. all rates
    zero) or the residual of the normalized system exceeds 1e-10, and
    `InvariantViolation` if L does not preserve Hermiticity: R then has an
    imaginary part above 1e-12 max|L|, which the real solve would drop.
    """
    lam = np.asarray(liouvillian, dtype=complex)
    with np.errstate(all="ignore"):
        y = _trace_solve(_real(lam))[:, 0]
        # Re U^H (iL) U = -Im U^H L U, the part of R the real solve drops
        drift = np.max(np.abs(_real(1j * lam))) / np.max(np.abs(lam))
    if not (drift <= 1e-12):
        raise InvariantViolation(f"Liouvillian does not preserve Hermiticity: max|Im U^H L U| is "
                                 f"{drift:.3e} of max|L|, above 1e-12")
    return DensityMatrix((_U @ y).reshape(4, 4))


def _generator(sys: LadderSystem, v: float = 0.0, **unit: float) -> np.ndarray:
    """d R / d x for x = v or the one `FieldDrive` field in `unit`: H is linear in each.

    A detuning or v rotates the two coordinates of each coherence pair it shifts.
    """
    return _real(_commutator(build_hamiltonian(sys, FieldDrive(**unit), v)))


# d R / d delta_p, d R / d delta_rf (6 coordinates each) and d R / d omega_rf
_GENERATORS = [_generator(LadderSystem(n_atoms=0.0), **{x: 1.0}) for x in ("delta_p", "delta_rf", "omega_rf")]


def _steady_rho21_many(gen: np.ndarray) -> np.ndarray:
    """rho21 of the trace-1 steady state of every generator in a stack."""
    return _trace_solve(gen)[..., 0] @ _RHO21


# --- batched, Doppler-averaged operating points ------------------------------

SELF_CHECK_TOL = 1e-8
# Warm operating points per stacked solve.  Bounds the working set: a few
# copies of CHUNK 16x16 real matrices (64 KB each); stacks of 64 or 128
# were no faster.  A cold scan checks every CHUNK-th point by a direct solve.
CHUNK = 32
_CHECK_VELOCITIES = np.array([-1.0, 1.0, -3.0, 3.0])   # in units of sigma; v = 0 is c0


# Weideman's rational expansion of the Faddeeva function, SIAM J. Numer. Anal.
# 31, 1497 (1994): N terms and his scale L = sqrt(N / sqrt 2)
_W_TERMS = 40
_W_SCALE = math.sqrt(_W_TERMS / math.sqrt(2.0))


@lru_cache(maxsize=1)
def _faddeeva_coefficients() -> np.ndarray:
    """a_N, ..., a_1 of p(Z) = sum_n a_n Z^(n-1), highest first, for Horner.

    a_n is the n-th cosine coefficient of f(t) = exp(-t^2) (L^2 + t^2) at
    t = L tan(theta / 2), sampled on theta = pi k / M, k = 1 - M .. M - 1, M = 2N.
    """
    m, scale = 2 * _W_TERMS, _W_SCALE
    k = np.arange(1, m)
    t = scale * np.tan(k * (math.pi / (2 * m)))
    f = np.exp(-t * t) * (scale * scale + t * t)
    n = np.arange(_W_TERMS, 0, -1)[:, None]
    return (scale * scale + 2.0 * np.cos(n * k * (math.pi / m)) @ f) / (2 * m)


def _faddeeva(z: np.ndarray) -> np.ndarray:
    """Faddeeva function w(z) = exp(-z^2) erfc(-i z) for Im z >= 0.

    Weideman's w = 2 p(Z) / (L - i z)^2 + 1 / (sqrt(pi) (L - i z)) with
    Z = (L + i z) / (L - i z), written with u = 1 / (L - i z) and Z = 2 L u - 1
    so that no square can overflow.  Within 1.4e-15 relative of mpmath for
    |z| from 1e-3 to 1e6 on and above the real axis.
    """
    a = _faddeeva_coefficients()
    u = 1.0 / (_W_SCALE - 1j * z)
    big_z = 2.0 * _W_SCALE * u - 1.0
    p = np.full(big_z.shape, a[0], dtype=complex)
    for c in a[1:]:  # Horner, in place
        p *= big_z
        p += c
    return u * (2.0 * p * u + 1.0 / math.sqrt(math.pi))


def _mean_pole_term(lam: np.ndarray, sigma: float) -> np.ndarray:
    """<v / (1 + lam v)> over a zero-mean Gaussian of standard deviation sigma.

    With the pole z = -1/lam and zeta = z / (sqrt(2) sigma) the average is
    -z (1 + zeta Z(zeta)), Z being the plasma-dispersion function of the
    real-line integral: Z = i s sqrt(pi) w(s zeta) with s = sign(Im zeta)
    and w the Faddeeva function.
    """
    z = -1.0 / lam
    zeta = z / (math.sqrt(2.0) * sigma)
    s = np.where(zeta.imag >= 0, 1.0, -1.0)
    plasma = 1j * s * math.sqrt(math.pi) * _faddeeva(s * zeta)
    return -z * (1.0 + zeta * plasma)


def _pole_form(gen: np.ndarray, direction: np.ndarray):
    """rho21 of gen + x `direction` as c0 - sum_k alpha_k x / (1 + lambda_k x).

    x moves the trace-constrained R_s + x D (see `_trace_solve`) only on the
    coordinates P that D = `direction` couples, so Woodbury on that block and
    one real `eig` of K = D_P R_s^-1[P, P] give c0, alpha, lambda and K's eigenvectors.
    """
    moving = np.flatnonzero(np.any(direction, axis=0))
    sol = _trace_solve(gen, moving)
    x0, inv_cols, d_p = sol[..., 0], sol[..., 1:], direction[np.ix_(moving, moving)]
    poles, vecs = np.linalg.eig(d_p @ inv_cols[..., moving, :])
    weights = np.linalg.solve(vecs, d_p @ x0[..., moving, None])[..., 0]
    alpha = ((inv_cols.swapaxes(-1, -2) @ _RHO21)[..., None, :] @ vecs)[..., 0, :] * weights
    return x0 @ _RHO21, alpha, poles, vecs


def _self_check(rational, direct, delta_p, delta_rf, vecs, expansion: str) -> None:
    """Raise `NonConvergenceError` where a row of `rational` misses `direct`.

    A row fails when its largest mismatch exceeds `SELF_CHECK_TOL` times its
    largest |direct| (NaN fails); the message names the worst row's
    detunings and cond(vecs[row]), the conditioning of its eigenbasis.
    """
    mismatch = np.max(np.abs(rational - direct), axis=-1)
    scale = np.max(np.abs(direct), axis=-1)
    ok = mismatch <= SELF_CHECK_TOL * scale
    if np.all(ok):
        return
    rel = np.where(ok, 0.0, np.nan_to_num(mismatch / scale, nan=np.inf))
    worst = int(np.argmax(rel))
    p_hz, rf_hz = delta_p[worst] / (2 * math.pi), delta_rf[worst] / (2 * math.pi)
    raise NonConvergenceError(
        f"{expansion}-pole expansion misses direct solves by {rel[worst]:.3e} relative "
        f"(tolerance {SELF_CHECK_TOL:g}) at probe detuning {p_hz:.6g} Hz, RF detuning "
        f"{rf_hz:.6g} Hz; cond(eigenvectors) = {np.linalg.cond(vecs[worst]):.3e}"
    )


def _detuned(base: np.ndarray, points: np.ndarray) -> np.ndarray:
    """`base` (built at zero RF Rabi frequency and detunings) at `points` = (delta_p, delta_rf, omega_rf)."""
    return base + sum(np.multiply.outer(x, g) for x, g in zip(points, _GENERATORS))


def _mean_rho21(sys: LadderSystem, drive: FieldDrive, delta_p, delta_rf, omega_rf=None) -> np.ndarray:
    """Maxwell-Boltzmann averaged probe coherence at a batch of operating points.

    The points share the other fields of `drive` and take their probe and RF
    detunings and RF Rabi frequency from `delta_p`, `delta_rf` and `omega_rf`
    (default `drive.omega_rf`), broadcast together into the result's shape.
    One real generator is built per call; each point is that matrix plus
    generators affine in delta_p, delta_rf, omega_rf and v.  A warm cell is
    solved in stacks of `CHUNK` points, a cold one a fixed detuning at a time.
    """
    omega_rf = drive.omega_rf if omega_rf is None else omega_rf
    points = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (delta_p, delta_rf, omega_rf)))
    if not np.all(np.isfinite(points) & (points[2] >= 0)):
        raise InvariantViolation("operating points need finite detunings and a finite omega_rf >= 0")
    base = _real(build_liouvillian(build_hamiltonian(sys, replace(drive, omega_rf=0.0, delta_p=0.0,
                                                                  delta_rf=0.0)), sys))
    flat = np.reshape(points, (3, -1))
    if sys.v_thermal < V_THERMAL_FLOOR:
        return _cold_rho21(base, flat).reshape(points[0].shape)
    out, d_v = np.empty(flat.shape[1], dtype=complex), _generator(sys, v=1.0)
    for start in range(0, out.size, CHUNK):
        out[start:start + CHUNK] = _warm_rho21(sys, base, d_v, flat[:, start:start + CHUNK])
    return out.reshape(points[0].shape)


def _warm_rho21(sys: LadderSystem, base: np.ndarray, d_v: np.ndarray, points: np.ndarray) -> np.ndarray:
    """<rho21> for one stack of warm operating points (as in `_detuned`).

    Along d_v = d R / d v (10 coordinates) rho21(v) is rational (`_pole_form`),
    and its pole terms average to the plasma-dispersion function.  Direct solves at
    +-sigma and +-3 sigma check every point; c0, the v = 0 solve itself, stands
    in for v = 0 on both sides, where it sets the row's scale max|direct|.
    """
    gen = _detuned(base, points)
    c0, alpha, poles, vecs = _pole_form(gen, d_v)
    probe_v = sys.v_thermal * _CHECK_VELOCITIES
    terms = alpha[:, None, :] * probe_v[:, None] / (1.0 + poles[:, None, :] * probe_v[:, None])
    rational = np.column_stack([c0, c0[:, None] - terms.sum(axis=-1)])
    direct = np.column_stack([c0, *(_steady_rho21_many(gen + v * d_v) for v in probe_v)])
    _self_check(rational, direct, *points[:2], vecs, "velocity")
    return c0 - np.sum(alpha * _mean_pole_term(poles, sys.v_thermal), axis=-1)


def _cold_rho21(base: np.ndarray, points: np.ndarray) -> np.ndarray:
    """rho21 of a Doppler-free cell (the v = 0 steady state) at every point (as in `_detuned`).

    Grouped by RF Rabi frequency and by whichever of delta_rf and delta_p has
    fewer distinct values, the other moves a point along its generator, so
    one `_pole_form` about a point of a group serves all of it, written as
    r_inf + sum_k (alpha_k / lambda_k) / (1 + lambda_k x) to stay exact at any
    span: along delta_p both coordinates of rho21 move, so r_inf = 0 unless a
    pole underflowed to 0 (huge fields; its term is then a constant).  Direct
    solves of `CHUNK` groups at a time check every `CHUNK`-th, last and
    largest-|rho21| point.
    """
    delta_p, delta_rf, omega_rf = points
    fixed, along, direction = ((delta_rf, delta_p, _GENERATORS[0])
                               if np.unique(delta_rf).size <= np.unique(delta_p).size
                               else (delta_p, delta_rf, _GENERATORS[1]))
    order = np.lexsort((fixed, omega_rf))
    cuts = np.flatnonzero((np.diff(omega_rf[order]) != 0) | (np.diff(fixed[order]) != 0)) + 1
    groups = np.split(order, cuts) if order.size else []
    out = np.empty(delta_p.size, dtype=complex)
    for first in range(0, len(groups), CHUNK):
        checks = []
        for idx in groups[first:first + CHUNK]:
            ref = idx[idx.size // 2]
            c0, alpha, poles, vecs = _pole_form(_detuned(base, points[:, ref]), direction)
            x = along[idx] - along[ref]
            beta = np.divide(alpha, poles, out=np.zeros_like(alpha), where=poles != 0)
            r_inf = 0.0 if direction is _GENERATORS[0] and np.all(poles != 0) else c0 - beta.sum()
            # one pole at a time, so the work arrays stay the size of the group;
            # the reference point keeps its own solve
            rational = r_inf + sum(b / (1.0 + lam * x) for b, lam in zip(beta, poles))
            out[idx] = rational = np.where(x == 0, c0, rational)
            check = np.r_[np.arange(0, idx.size, CHUNK), idx.size - 1, np.argmax(np.abs(rational))]
            checks.append((idx[np.unique(check)], vecs))
        pts = np.concatenate([p for p, _ in checks])
        direct = np.concatenate([_steady_rho21_many(_detuned(base, points[:, p]))
                                 for p in np.split(pts, np.arange(CHUNK, pts.size, CHUNK))])
        _self_check(out[pts, None], direct[:, None], delta_p[pts], delta_rf[pts],
                    [vecs for p, vecs in checks for _ in p], "detuning")
    return out


def doppler_average(sys: LadderSystem, drive: FieldDrive) -> complex:
    """Exact Maxwell-Boltzmann average of the steady-state probe coherence.

    A size-1 call of the batched kernel; see `_warm_rho21` for the
    velocity-pole expansion and its self-check.
    """
    with np.errstate(all="ignore"):
        return complex(_mean_rho21(sys, drive, drive.delta_p, drive.delta_rf))


def susceptibility_batch(
    sys: LadderSystem, drive: FieldDrive, delta_p, delta_rf=None, omega_rf=None
) -> np.ndarray:
    """Complex probe susceptibility at a batch of operating points.

    chi = 2 n mu12^2 <rho21> / (eps0 hbar Omega_p) with <rho21> the
    Doppler-averaged probe coherence of the full nonlinear steady state.
    The points are `drive` with its probe detuning, RF detuning and RF Rabi
    frequency replaced by the entries of `delta_p`, `delta_rf` and `omega_rf`
    (default: those of `drive`), broadcast together into the result's shape.
    """
    if not (drive.omega_p > 0):
        raise InvariantViolation("susceptibility requires omega_p > 0")
    if not abs(sys.mu12) <= math.sqrt(np.finfo(float).max):  # else mu12 ** 2 overflows
        raise DomainError(f"mu12 = {sys.mu12:g} C m is too large: its square overflows")
    with np.errstate(all="ignore"):
        rho21 = _mean_rho21(sys, drive, delta_p, drive.delta_rf if delta_rf is None else delta_rf, omega_rf)
        chi = 2 * sys.n_atoms * sys.mu12 ** 2 * rho21 / (EPS0 * HBAR * drive.omega_p)
    if not np.all(np.isfinite(chi)):
        raise NonConvergenceError(f"susceptibility is not finite at {np.sum(~np.isfinite(chi))} "
                                  f"of {chi.size} operating points")
    if not np.all(chi.imag >= -1e-12 * np.maximum(1.0, np.abs(chi))):
        raise InvariantViolation(
            f"negative probe absorption Im chi = {np.min(chi.imag):.3e}; passive medium violated"
        )
    return chi
