"""Spectral partitioning, diagonal shifts, PSD certificates, and the
sufficient-condition checkers for when the spectral route provably solves
Max-Cut, plus the Goemans-Williamson bound specialization to stable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import oracle
from .errors import DomainError, ValidationError
from .graph import Cut, WeightedGraph, weighted_degrees

__all__ = [
    "PSD_REL_TOL",
    "LOCAL_GAMMA_CAP",
    "GW_FLOOR",
    "SpectralCertificate",
    "ConditionVerdict",
    "eigen_smallest_two",
    "bottom_spectrum",
    "spectral_partition",
    "build_diagonal_from_cut",
    "spectral_gamma_requirement",
    "psd_sufficient_margin",
    "family_condition_checks",
    "build_certificate",
    "gw_bound",
    "stable_gw_bound",
]

PSD_REL_TOL = 1e-9
# Infinite local stability saturates (gamma-1)/(gamma+1) at 1; the cap keeps
# the arithmetic finite and is numerically inert.
LOCAL_GAMMA_CAP = 1e12
# Unconditional Goemans-Williamson guarantee, printed alongside the
# ratio-dependent bound.
GW_FLOOR = 0.8786


def _as_sym(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {m.shape}")
    if not (m == m.T).all():  # exactly symmetric needs no scale
        scale = max(1.0, float(np.abs(m).max()))
        if float(np.abs(m - m.T).max()) > 1e-12 * scale:
            raise ValidationError("matrix must be symmetric within 1e-12")
    return m


def eigen_smallest_two(m: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Two smallest eigenvalues of a symmetric matrix plus the bottom eigenvector.

    Dense LAPACK path (tridiagonalization + implicit QL); the returned vector
    has unit norm and residual |Mu - lam*u|_inf <= 1e-9 * |M|_inf.
    """
    m = _as_sym(m)
    if m.shape[0] == 0:
        raise ValidationError("matrix must be nonempty")
    vals, vecs = np.linalg.eigh(m)
    lam_n = float(vals[0])
    lam_n1 = float(vals[1]) if m.shape[0] > 1 else float(vals[0])
    return lam_n, vecs[:, 0].copy(), lam_n1


def _shifted(g: WeightedGraph, d: np.ndarray) -> np.ndarray:
    """W + diag(d) as a new matrix."""
    m = g.weights.copy()
    m.reshape(-1)[:: g.n + 1] = d
    return m


def bottom_spectrum(g: WeightedGraph) -> tuple[float, np.ndarray, float]:
    """eigen_smallest_two(W), solved once per graph and stored on it; the
    eigenvector is shared and therefore read-only.  Nothing is replaced, so
    threads sharing a graph at worst solve W twice and get the same bits."""
    spectrum = g._spectra.get("W")
    if spectrum is None:
        spectrum = eigen_smallest_two(g.weights)
        spectrum[1].setflags(write=False)
        g._spectra["W"] = spectrum
    return spectrum


def _positive(u: np.ndarray) -> np.ndarray:
    """The side of each vertex in a sign rounding: entries > 0 against <= 0."""
    return u > 0


def _sign_cut(u: np.ndarray) -> Cut:
    """Entries > 0 go to one side, entries <= 0 to the other."""
    return Cut(np.where(_positive(u), 1, -1).astype(np.int8))


def _rounding_key(u: np.ndarray) -> bytes:
    """_sign_cut(u)'s sides as bytes, True on vertex 0's: equal exactly when the cuts are."""
    side = _positive(u)
    return (side == side[0]).tobytes()


def spectral_partition(g: WeightedGraph) -> Cut:
    """Cut induced by the sign pattern (see _sign_cut) of the eigenvector of
    the least eigenvalue of W (see bottom_spectrum)."""
    return _sign_cut(bottom_spectrum(g)[1])


def build_diagonal_from_cut(g: WeightedGraph, c: Cut) -> np.ndarray:
    """Diagonal d with d_i = w(i, opposite side) - w(i, own side).

    Chosen so the cut's sign vector lies in the kernel of W + diag(d)
    exactly; trace(d) = 2 * (cut weight - uncut weight).
    """
    s = c.as_float()
    if s.shape[0] != g.n:
        raise ValidationError(f"cut has {c.n} entries for a {g.n}-vertex graph")
    return -s * (g.weights @ s)


def spectral_gamma_requirement(
    g: WeightedGraph, u: np.ndarray
) -> tuple[float, float]:
    """Stability thresholds above which the cut induced by u is the maximum.

    basic   = max |u_i u_j| / min |u_i u_j| over support edges (+inf, i.e.
              meaningless, when some product vanishes);
    refined = (max of -u_i u_j over sign-disagreeing edges)
              / (min of u_i u_j over sign-agreeing edges).
    """
    u = np.asarray(u, dtype=np.float64)
    iu, ju = np.nonzero(np.triu(g.support))
    if iu.size == 0:
        return 1.0, 0.0
    prods = u[iu] * u[ju]
    abs_prods = np.abs(prods)
    lo = float(abs_prods.min())
    basic = math.inf if lo == 0.0 else float(abs_prods.max()) / lo

    neg = prods < 0
    pos = ~neg
    num = float((-prods[neg]).max()) if neg.any() else 0.0
    den = float(prods[pos].min()) if pos.any() else math.inf
    if den == 0.0:
        refined = math.inf if num > 0 else 0.0
    elif math.isinf(den):
        refined = 0.0
    else:
        refined = num / den
    return basic, refined


def _capped(gamma: float) -> float:
    return min(gamma, LOCAL_GAMMA_CAP)


def psd_sufficient_margin(g: WeightedGraph, c: Cut) -> tuple[bool, float]:
    """Margin 2*delta~*(gamma-1)/(gamma+1) + lam_n + lam_{n-1} for the cut c.

    gamma is the local stability of c (capped when infinite) and the
    eigenvalues are those of W itself.  A positive margin guarantees
    W + diag(build_diagonal_from_cut(g, c)) is positive semidefinite.
    """
    gamma = _capped(oracle.local_stability_gamma(g, c))
    delta_t = weighted_degrees(g).min_weighted
    lam_n, _, lam_n1 = bottom_spectrum(g)
    margin = 2.0 * delta_t * (gamma - 1.0) / (gamma + 1.0) + lam_n + lam_n1
    return margin > 0, float(margin)


@dataclass(frozen=True)
class ConditionVerdict:
    """One sufficient-condition check with its computed sides."""

    name: str
    applicable: bool
    holds: bool | None
    lhs: float | None = None
    rhs: float | None = None
    detail: dict = field(default_factory=dict)


def family_condition_checks(
    g: WeightedGraph,
    c: Cut,
    profile: oracle.StabilityReport | None = None,
) -> list[ConditionVerdict]:
    """Evaluate the graph-family conditions under which the shifted spectral
    route is guaranteed: equal weighted degrees, regular expanders, Cheeger
    expansion, and cut distinctness.

    gamma is the local stability of c (capped when infinite); structural
    preconditions that fail mark the check not-applicable rather than false.
    The Cheeger and distinctness checks read the Cheeger constant and k* off
    the exact stability `profile`; without one they are not applicable.
    """
    verdicts: list[ConditionVerdict] = []
    gamma = _capped(oracle.local_stability_gamma(g, c))
    stats = weighted_degrees(g)
    lam_n, _, lam_n1 = bottom_spectrum(g)

    wdeg = stats.weighted
    equal_w = g.n > 0 and float(np.ptp(wdeg)) <= 1e-9 * max(1.0, float(np.abs(wdeg).max()))
    if equal_w and lam_n < 0:
        lhs = lam_n1 / lam_n
        rhs = (gamma - 3.0) / (gamma + 1.0)
        verdicts.append(
            ConditionVerdict(
                "equal_degree_spectral_ratio", True, bool(lhs < rhs), float(lhs), float(rhs),
                {"gamma_local": gamma},
            )
        )
    else:
        verdicts.append(ConditionVerdict("equal_degree_spectral_ratio", False, None))

    regular = g.is_simple() and equal_w and g.n > 1
    d = float(wdeg[0]) if regular else 0.0
    if regular:
        vals = np.linalg.eigvalsh(g.weights)
        lam2 = float(vals[-2])
        if d - lam2 > 0:
            rhs = (5.0 * d + lam2) / (d - lam2)
            verdicts.append(
                ConditionVerdict(
                    "regular_expander", True, bool(gamma > rhs), gamma, float(rhs),
                    {"degree": d, "lambda2": lam2},
                )
            )
        else:
            verdicts.append(
                ConditionVerdict(
                    "regular_expander", True, False, gamma, math.inf,
                    {"degree": d, "lambda2": lam2},
                )
            )
    else:
        verdicts.append(ConditionVerdict("regular_expander", False, None))

    def threshold_from(x: float) -> float:
        frac = min(max(x / d, 0.0), 1.0)
        s = math.sqrt(max(0.0, 1.0 - frac * frac))
        if 1.0 - s == 0.0:
            return math.inf
        return (5.0 + s) / (1.0 - s)

    rep = profile if regular else None
    h = None if rep is None else rep.cheeger
    if h is not None and math.isfinite(h) and h > 0:
        rhs = threshold_from(h)
        verdicts.append(
            ConditionVerdict(
                "cheeger_expansion", True, bool(gamma > rhs), gamma, rhs,
                {"cheeger": h, "degree": d},
            )
        )
    else:
        verdicts.append(ConditionVerdict("cheeger_expansion", False, None))

    if rep is not None and rep.unique and math.isfinite(rep.k_star) and rep.k_star > 0:
        rhs = threshold_from(rep.k_star)
        verdicts.append(
            ConditionVerdict(
                "distinctness", True, bool(gamma > rhs), gamma, rhs,
                {"k_star": rep.k_star, "cheeger": h, "h_ge_k": bool(h >= rep.k_star)},
            )
        )
    else:
        verdicts.append(ConditionVerdict("distinctness", False, None))

    return verdicts


@dataclass(frozen=True)
class SpectralCertificate:
    """Spectral snapshot of W + diag(d) for a candidate cut; ``psd`` means
    lambda_n >= -PSD_REL_TOL * max(1, |W + diag(d)|_inf)."""

    lambda_n: float
    lambda_n_minus_1: float
    eigvec: np.ndarray
    diag_shift: np.ndarray
    psd: bool
    residual: float


def build_certificate(g: WeightedGraph, c: Cut) -> SpectralCertificate:
    """Certificate for c: kernel diagonal, bottom spectrum, PSD flag, residual."""
    d = build_diagonal_from_cut(g, c)
    m = _shifted(g, d)
    lam_n, u, lam_n1 = eigen_smallest_two(m)
    residual = float(np.abs(m @ c.as_float()).max()) if g.n else 0.0
    return SpectralCertificate(
        lambda_n=lam_n,
        lambda_n_minus_1=lam_n1,
        eigvec=u,
        diag_shift=d,
        psd=lam_n >= -PSD_REL_TOL * max(1.0, float(np.linalg.norm(m, np.inf))),
        residual=residual,
    )


def gw_bound(r: float) -> float:
    """Approximation-ratio lower bound arccos(1 - 2r) / (pi * r) for cut ratio r."""
    if not 0.5 <= r <= 1.0:
        raise DomainError(f"cut ratio must lie in [1/2, 1], got {r}")
    return math.acos(1.0 - 2.0 * r) / (math.pi * r)


def stable_gw_bound(gamma: float) -> float:
    """gw_bound at the cut ratio gamma/(gamma+1) implied by local stability."""
    if gamma < 1.0:
        raise DomainError(f"gamma must be >= 1, got {gamma}")
    return gw_bound(gamma / (gamma + 1.0))
