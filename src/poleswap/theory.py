"""Numerical verification of the pole-swapping convergence theory.

Every move of type I or II effects a nested subspace iteration: the core
acting in the (k, k+1) plane multiplies the invariant flag E_k by a rational
factor (z - pole entering from above) / (z - pole leaving downward), applied
through A B^{-1} on the Q side and B^{-1} A on the Z side.  Composing the
factors of all moves that act at one plane gives the whole-sweep statement:

    span(Q[:, :k]) = r(A B^{-1}) E_k,   span(Z[:, :k-1]) = r(B^{-1} A) E_{k-1}

with r the product of the per-move factors at plane k.  This module builds
rational Krylov spaces, applies rational operators in factored form (B^{-1}
is never formed; every factor is one linear solve with beta A - alpha B),
measures principal angles, and checks recorded moves and sweeps against the
predicted subspaces.

All checks are quantitative, so the random pencils are rejection-sampled to
keep every shifted solve well conditioned; otherwise the angle thresholds
would be meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .moves import MoveRecord
from .numerics import (
    UNIT_ROUNDOFF,
    ProjectiveValue,
    chordal_distance,
    make_projective,
)
from .pencil import HessenbergPencil
from .rqz import SweepRecord, basic_sweep, bidirectional_sweep, multishift_sweep


@dataclass(slots=True)
class Subspace:
    """Orthonormal basis of a k-dimensional subspace of C^n."""

    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=complex)
        if basis.ndim != 2:
            raise ValueError("subspace basis must be an n x k matrix")
        n, k = basis.shape
        gram = basis.conj().T @ basis
        if np.linalg.norm(gram - np.eye(k)) > 10.0 * max(k, 1) * UNIT_ROUNDOFF:
            raise ValueError("subspace basis is not orthonormal")
        self.basis = basis

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def ambient(self) -> int:
        return self.basis.shape[0]


@dataclass(slots=True)
class RationalFunctionSpec:
    """Product of factors (z - zero_i) / (z - pole_i), held projectively."""

    zeros: list[ProjectiveValue]
    poles: list[ProjectiveValue]

    def __post_init__(self):
        if len(self.zeros) != len(self.poles):
            raise ValueError("zeros and poles lists must have equal length")

    def __len__(self) -> int:
        return len(self.zeros)

    def concatenated(self, other: "RationalFunctionSpec") -> "RationalFunctionSpec":
        return RationalFunctionSpec(self.zeros + other.zeros, self.poles + other.poles)


def orthonormal(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span; raises on rank collapse."""
    m = np.asarray(m, dtype=complex)
    q, r = np.linalg.qr(m)
    diag = np.abs(np.diag(r))
    if diag.size and np.min(diag) <= m.shape[0] * UNIT_ROUNDOFF * max(np.max(diag), 1e-300):
        raise ValueError("operator (numerically) annihilated a subspace direction")
    return q


def flag_basis(n: int, k: int) -> np.ndarray:
    return np.eye(n, dtype=complex)[:, :k]


def _factor(a, b, value: ProjectiveValue) -> np.ndarray:
    return value.beta * a - value.alpha * b


def _solve_factor(a, b, pole: ProjectiveValue, rhs):
    mat = _factor(a, b, pole)
    try:
        out = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular factor solve: pole {pole!r} is an eigenvalue") from exc
    if not np.all(np.isfinite(out.view(float))):
        raise ValueError(f"factor solve diverged for pole {pole!r}")
    return out


def apply_rational_factors(a, b, spec: RationalFunctionSpec, m: np.ndarray, variant: str) -> np.ndarray:
    """Raw application of r to the columns of m, factor by factor.

    left_quotient computes r(A B^{-1}) m as products (beta_z A - alpha_z B)
    (beta_p A - alpha_p B)^{-1}; right_quotient computes r(B^{-1} A) m via
    the conjugation r(B^{-1} A) = B^{-1} r(A B^{-1}) B.  Factors of one
    quotient commute, so the application order is irrelevant.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.array(m, dtype=complex)
    if variant == "right_quotient":
        out = b @ out
    elif variant != "left_quotient":
        raise ValueError("variant must be 'left_quotient' or 'right_quotient'")
    for zero, pole in zip(spec.zeros, spec.poles):
        out = _factor(a, b, zero) @ _solve_factor(a, b, pole, out)
    if variant == "right_quotient":
        try:
            out = np.linalg.solve(b, out)
        except np.linalg.LinAlgError as exc:
            raise ValueError("singular factor solve: B is singular") from exc
    return out


def apply_rational_operator(a, b, spec: RationalFunctionSpec, s: Subspace, variant: str) -> Subspace:
    """Orthonormal basis of r(A B^{-1}) S or r(B^{-1} A) S."""
    return Subspace(orthonormal(apply_rational_factors(a, b, spec, s.basis, variant)))


def principal_angle(s1: Subspace, s2: Subspace) -> float:
    """Largest principal angle between equal-dimensional subspaces, radians.

    Computed from sin(theta_max) = ||(I - P1) S2||_2, which stays accurate
    for the tiny angles the theorem checks assert (a cosine-based formula
    cannot resolve below sqrt(u)).
    """
    if s1.ambient != s2.ambient:
        raise ValueError("ambient dimensions differ")
    if s1.dim != s2.dim:
        raise ValueError("subspace dimensions differ")
    if s1.dim == 0:
        return 0.0
    residual = s2.basis - s1.basis @ (s1.basis.conj().T @ s2.basis)
    s = np.linalg.svd(residual, compute_uv=False)
    return float(np.arcsin(min(1.0, float(s[0]))))


def _move_factor(record: MoveRecord) -> tuple[ProjectiveValue, ProjectiveValue]:
    """(upper, lower) poles of the move: the factor is (z - upper)/(z - lower).

    ``upper`` is the pole at position j-1 before the move (the entering value
    for type1_top), ``lower`` the pole at position j (the entering value for
    type1_bottom).
    """
    if record.kind == "type1_top":
        return record.pole_in, record.pole_out
    if record.kind == "type1_bottom":
        return record.pole_out, record.pole_in
    return record.pole_in, record.pole_out


def _move_plane(record: MoveRecord) -> int:
    """1-based plane index k of the move's Q-core (n for type1_bottom)."""
    if record.kind == "type1_bottom":
        return record.index + 2
    return record.index + 1


def verify_move_theorem(a_before, b_before, record: MoveRecord) -> tuple[float, float]:
    """Angles between the move's core flags and the predicted rational images.

    For a move at plane j: span(Q_j E_j) vs (A - s_{j-1} B)(A - s_j B)^{-1} E_j
    and span(Z_{j-1} E_{j-1}) vs (A - s_j B)^{-1}(A - s_{j-1} B) E_{j-1}.
    Records must come from moves on a full-window pencil (lo == 0).
    """
    a = np.asarray(a_before, dtype=complex)
    b = np.asarray(b_before, dtype=complex)
    n = a.shape[0]
    upper, lower = _move_factor(record)
    spec = RationalFunctionSpec([upper], [lower])

    angle_q = 0.0
    if record.q is not None and not record.q.is_identity:
        j = record.q.index + 1  # plane, 1-based
        basis = np.eye(n, dtype=complex)[:, :j]
        basis[:, j - 1] = record.q.embed(n)[:, j - 1]
        s1 = Subspace(basis)
        s2 = apply_rational_operator(a, b, spec, Subspace(flag_basis(n, j)), "left_quotient")
        angle_q = principal_angle(s1, s2)

    angle_z = 0.0
    if record.z is not None and not record.z.is_identity:
        jz = record.z.index + 1  # the Z-core acts on E_jz
        basis = np.eye(n, dtype=complex)[:, :jz]
        basis[:, jz - 1] = record.z.embed(n)[:, jz - 1]
        s1 = Subspace(basis)
        s2 = apply_rational_operator(a, b, spec, Subspace(flag_basis(n, jz)), "right_quotient")
        angle_z = principal_angle(s1, s2)
    return angle_q, angle_z


def sweep_factors_at_plane(sweep: SweepRecord, k: int) -> RationalFunctionSpec:
    """Composed rational function acting at (1-based) plane k of a sweep."""
    zeros: list[ProjectiveValue] = []
    poles: list[ProjectiveValue] = []
    for move in sweep.moves:
        if _move_plane(move) == k:
            upper, lower = _move_factor(move)
            zeros.append(upper)
            poles.append(lower)
    return RationalFunctionSpec(zeros, poles)


def cancelled_factors(spec: RationalFunctionSpec, tol: float = 1e-12) -> RationalFunctionSpec:
    """Remove zero/pole pairs that coincide chordally within tol."""
    zeros = list(spec.zeros)
    poles = list(spec.poles)
    changed = True
    while changed:
        changed = False
        for i, z in enumerate(zeros):
            for j, p in enumerate(poles):
                if chordal_distance(z, p) <= tol:
                    zeros.pop(i)
                    poles.pop(j)
                    changed = True
                    break
            if changed:
                break
    return RationalFunctionSpec(zeros, poles)


def verify_sweep_theorem(a_before, b_before, sweep: SweepRecord, q, z) -> float:
    """Max principal angle over all planes between the accumulated Q/Z flags
    and the rational images predicted by the sweep's move log."""
    a = np.asarray(a_before, dtype=complex)
    b = np.asarray(b_before, dtype=complex)
    n = a.shape[0]
    worst = 0.0
    for k in range(1, n + 1):
        spec = sweep_factors_at_plane(sweep, k)
        if k <= n - 1:
            predicted = apply_rational_operator(
                a, b, spec, Subspace(flag_basis(n, k)), "left_quotient"
            )
            got = Subspace(orthonormal(q[:, :k]))
            worst = max(worst, principal_angle(got, predicted))
        if k >= 2:
            predicted = apply_rational_operator(
                a, b, spec, Subspace(flag_basis(n, k - 1)), "right_quotient"
            )
            got = Subspace(orthonormal(z[:, : k - 1]))
            worst = max(worst, principal_angle(got, predicted))
    return worst


# ---------------------------------------------------------------------------
# Rational Krylov spaces
# ---------------------------------------------------------------------------


def rational_krylov_basis(c, v, poles) -> Subspace:
    """Orthonormal basis of K_j(C, v, [s_1, ..., s_{j-1}]).

    Built by the rational Arnoldi recurrence: the next direction is
    (C - s_k I)^{-1} q_k applied to the latest orthonormal basis vector
    (infinite poles contribute a polynomial step C q_k), orthogonalized
    twice against the existing basis.  One solve per direction keeps the
    construction conditioned by the individual shifted systems instead of
    their product.  A pole too close to an eigenvalue of C surfaces as an
    ill-conditioned solve and is reported with the offending pole.
    """
    c = np.asarray(c, dtype=complex)
    v = np.asarray(v, dtype=complex).reshape(-1)
    n = c.shape[0]
    poles = list(poles)
    j = len(poles) + 1
    if j > n:
        raise ValueError("space dimension exceeds ambient dimension")
    basis = np.zeros((n, j), dtype=complex)
    basis[:, 0] = v / np.linalg.norm(v)
    eye = np.eye(n, dtype=complex)
    for k, pole in enumerate(poles, start=1):
        if pole.is_infinite:
            w = c @ basis[:, k - 1]
        else:
            shifted = c - pole.to_complex() * eye
            cond = np.linalg.cond(shifted)
            if not np.isfinite(cond) or cond > 1.0 / (1e4 * UNIT_ROUNDOFF):
                raise ValueError(f"pole {pole!r} is (nearly) an eigenvalue of C")
            w = np.linalg.solve(shifted, basis[:, k - 1])
        for _ in range(2):
            w -= basis[:, :k] @ (basis[:, :k].conj().T @ w)
        nw = np.linalg.norm(w)
        if nw <= n * UNIT_ROUNDOFF:
            raise ValueError("Krylov sequence degenerated before reaching dimension")
        basis[:, k] = w / nw
    return Subspace(basis)


# ---------------------------------------------------------------------------
# Seeded verification suite
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    max_angle: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_angle <= self.threshold


@dataclass
class VerificationReport:
    seed: int
    n: int
    pencils: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]


def _random_conditioned_pencil(rng, n: int, cond_cap: float = 1e6, extra_values=()):
    """Proper Hessenberg pencil with moderate poles, rejection-sampled so
    every shifted solve the checks will perform is well conditioned: the
    factors (beta A - alpha B) for all poles and supplied shifts, B itself,
    and the shifted quotients (A B^{-1} - s I), (B^{-1} A - s I) used by the
    rational Krylov identity."""
    eye = np.eye(n)
    for _ in range(200):
        a = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        b = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        poles = []
        for j in range(n - 1):
            val = (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random())
            scale = 0.5 + rng.random()
            poles.append(make_projective(val, 1.0))
            a[j + 1, j] = scale * val
            b[j + 1, j] = scale
        ok = np.linalg.cond(b) <= cond_cap
        for value in list(poles) + list(extra_values):
            if not ok:
                break
            ok = np.linalg.cond(_factor(a, b, value)) <= cond_cap
        if ok:
            c_left = np.linalg.solve(b.conj().T, a.conj().T).conj().T
            c_right = np.linalg.solve(b, a)
            for pole in poles:
                if not ok:
                    break
                s = pole.to_complex()
                ok = (
                    np.linalg.cond(c_left - s * eye) <= cond_cap
                    and np.linalg.cond(c_right - s * eye) <= cond_cap
                )
        if ok:
            return HessenbergPencil(a, b), poles
    raise RuntimeError("rejection sampling failed to find a conditioned pencil")


def _random_shift(rng) -> ProjectiveValue:
    return make_projective((1.0 + rng.random()) * np.exp(2j * np.pi * rng.random()), 1.0)


def run_verification(seed: int = 0, n: int = 8, pencils: int = 100) -> VerificationReport:
    """Run every theorem check on seeded conditioned random pencils.

    Checks and thresholds: the type I direction statements at 1e-10, the
    per-move and whole-sweep subspace statements (single-shift, multishift
    m=2, bidirectional m=1 and m=2) at 1e-8, and the flag/rational-Krylov
    identity at 1e-8.
    """
    from .moves import move_type1_bottom, move_type1_top, move_type2

    rng = np.random.default_rng(seed)
    report = VerificationReport(seed=seed, n=n, pencils=pencils)
    angles = {
        "prop_first_column_direction": 0.0,
        "prop_last_row_direction": 0.0,
        "thm_single_move": 0.0,
        "thm_basic_sweep": 0.0,
        "thm_multishift_sweep": 0.0,
        "thm_bidirectional_sweep": 0.0,
        "prop_flag_rational_krylov": 0.0,
    }

    for _ in range(pencils):
        rho = _random_shift(rng)
        tau = _random_shift(rng)
        rho2 = _random_shift(rng)
        tau2 = _random_shift(rng)
        while min(
            chordal_distance(rho, tau),
            chordal_distance(rho, tau2),
            chordal_distance(rho2, tau),
            chordal_distance(rho2, tau2),
        ) < 1e-2:
            tau = _random_shift(rng)
            tau2 = _random_shift(rng)
        extra = [rho, tau, rho2, tau2, make_projective(1.0, 0.0)]
        p, _ = _random_conditioned_pencil(rng, n, extra_values=extra)
        a0, b0 = p.a.copy(), p.b.copy()

        # type I direction statements
        work = p.copy()
        rec = move_type1_top(work, rho)
        aq, _ = verify_move_theorem(a0, b0, rec)
        angles["prop_first_column_direction"] = max(angles["prop_first_column_direction"], aq)
        work = p.copy()
        rec = move_type1_bottom(work, tau)
        _, az = verify_move_theorem(a0, b0, rec)
        angles["prop_last_row_direction"] = max(angles["prop_last_row_direction"], az)

        # one interior type II move
        work = p.copy()
        j = int(rng.integers(1, n - 1))
        rec = move_type2(work, j)
        aq, az = verify_move_theorem(a0, b0, rec)
        angles["thm_single_move"] = max(angles["thm_single_move"], aq, az)

        # whole sweeps
        for name, runner in (
            ("thm_basic_sweep", lambda w: basic_sweep(w, rho, tau)),
            ("thm_multishift_sweep", lambda w: multishift_sweep(w, [rho, rho2], [tau, tau2])),
            ("thm_bidirectional_sweep", lambda w: bidirectional_sweep(w, [rho], [tau])),
            ("thm_bidirectional_sweep", lambda w: bidirectional_sweep(w, [rho, rho2], [tau, tau2])),
        ):
            # a copy starts with Q = Z = I, so they hold the sweep's alone
            work = p.copy()
            sweep = runner(work)
            if sweep.deflation is not None:
                continue
            angle = verify_sweep_theorem(a0, b0, sweep, work.q, work.z)
            angles[name] = max(angles[name], angle)

        # flag = rational Krylov space of the quotient operators
        c_left = np.linalg.solve(b0.conj().T, a0.conj().T).conj().T  # A B^{-1}
        c_right = np.linalg.solve(b0, a0)  # B^{-1} A
        e1 = np.zeros(n, dtype=complex)
        e1[0] = 1.0
        pole_list = p.poles()
        for j in range(1, n):
            flag = Subspace(flag_basis(n, j))
            left = rational_krylov_basis(c_left, e1, pole_list[: j - 1])
            angle = principal_angle(flag, left)
            right = rational_krylov_basis(c_right, e1, pole_list[1:j])
            angle = max(angle, principal_angle(flag, right))
            angles["prop_flag_rational_krylov"] = max(
                angles["prop_flag_rational_krylov"], angle
            )

    thresholds = {
        "prop_first_column_direction": 1e-10,
        "prop_last_row_direction": 1e-10,
        "thm_single_move": 1e-8,
        "thm_basic_sweep": 1e-8,
        "thm_multishift_sweep": 1e-8,
        "thm_bidirectional_sweep": 1e-8,
        "prop_flag_rational_krylov": 1e-8,
    }
    for name, angle in angles.items():
        report.checks.append(CheckResult(name, angle, thresholds[name]))
    return report
